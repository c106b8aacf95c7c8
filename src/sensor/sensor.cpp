#include "sensor/sensor.hpp"

#include "common/error.hpp"

namespace rpx {

SensorConfig
sensorPreset4K()
{
    return SensorConfig{"IMX274", 3840, 2160, 60.0, 0.0, 1};
}

SensorConfig
sensorPreset1080p()
{
    return SensorConfig{"1080p", 1920, 1080, 30.0, 0.0, 1};
}

SensorConfig
sensorPreset720p()
{
    return SensorConfig{"720p", 1280, 720, 30.0, 0.0, 1};
}

SensorConfig
sensorPresetSvga()
{
    return SensorConfig{"SVGA", 800, 600, 30.0, 0.0, 1};
}

SensorConfig
sensorPreset480p()
{
    return SensorConfig{"480p", 640, 480, 30.0, 0.0, 1};
}

SensorConfig
sensorPreset240p()
{
    return SensorConfig{"240p", 320, 240, 30.0, 0.0, 1};
}

SensorModel::SensorModel(const SensorConfig &config)
    : config_(config), rng_(config.noise_seed)
{
    if (config.width <= 0 || config.height <= 0)
        throwInvalid("sensor resolution must be positive");
    if (config.fps <= 0.0)
        throwInvalid("sensor frame rate must be positive");
}

namespace {

/**
 * One mosaic row of an RGB scene row. RGGB: even rows alternate R, G and
 * odd rows G, B, so a row's column pair (2p, 2p + 1) reads the scene
 * bytes 6p + c and 6p + 4 + c, with the channel offset c fixed by the
 * row's parity.
 */
void
mosaicRow(const u8 *rgb, u8 *dst, i32 w, bool odd_row)
{
    const u8 *src = rgb + (odd_row ? 1 : 0);
    i32 x = 0;
    for (; x + 1 < w; x += 2, src += 6) {
        dst[x] = src[0];
        dst[x + 1] = src[4];
    }
    if (x < w)
        dst[x] = src[0];
}

} // namespace

Image &
SensorModel::capture(const Image &scene_rgb, const KeptRunPlan *plan)
{
    if (scene_rgb.channels() != 3)
        throwInvalid("SensorModel::capture expects an RGB scene");
    const i32 w = config_.width;
    const i32 h = config_.height;
    if (plan && (plan->width() != w || plan->height() != h))
        throwInvalid("kept-run plan is ", plan->width(), "x",
                     plan->height(), ", sensor is ", w, "x", h);
    Image resized;
    const Image *scene = &scene_rgb;
    if (scene_rgb.width() != w || scene_rgb.height() != h) {
        resized = scene_rgb.resized(w, h);
        scene = &resized;
    }
    if (raw_.width() != w || raw_.height() != h)
        raw_ = Image(w, h, PixelFormat::BayerRggb);

    for (i32 y = 0; y < h; ++y) {
        // A kept-pixel ISP reads the 3x3 window of each kept site.
        const bool read = !plan || plan->rowKept(y) > 0 ||
                          (y > 0 && plan->rowKept(y - 1) > 0) ||
                          (y + 1 < h && plan->rowKept(y + 1) > 0);
        if (read)
            mosaicRow(scene->row(y), raw_.row(y), w, (y & 1) != 0);
    }
    addNoise(raw_);
    ++frames_;
    return raw_;
}

Image
SensorModel::captureGray(const Image &scene)
{
    Image gray = scene.toGray();
    if (gray.width() != config_.width || gray.height() != config_.height)
        gray = gray.resized(config_.width, config_.height);
    addNoise(gray);
    ++frames_;
    return gray;
}

void
SensorModel::addNoise(Image &img)
{
    if (config_.read_noise_sigma <= 0.0)
        return;
    for (auto &b : img.data()) {
        b = clampToU8(b + rng_.gaussian(0.0, config_.read_noise_sigma));
    }
}

} // namespace rpx
