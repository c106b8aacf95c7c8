/**
 * @file
 * Image sensor model.
 *
 * Emulates a commercial raster-scan imager (the paper uses a Sony IMX274,
 * 4K @ 60 fps): given an RGB scene frame it produces the RGGB Bayer mosaic
 * the ISP expects, with optional photon/read noise, and streams it in
 * raster-scan order with line blanking. Region selection deliberately does
 * NOT happen here — the whole point of the paper is that the encoder sits in
 * the SoC behind a standard sensor readout.
 */

#ifndef RPX_SENSOR_SENSOR_HPP
#define RPX_SENSOR_SENSOR_HPP

#include <string>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/kept_plan.hpp"
#include "frame/image.hpp"

namespace rpx {

/** Static sensor configuration. */
struct SensorConfig {
    std::string name = "IMX274";
    i32 width = 3840;
    i32 height = 2160;
    double fps = 60.0;
    double read_noise_sigma = 0.0;  //!< gaussian read noise in DN
    u64 noise_seed = 1;

    /** Pixels per second streamed out of the sensor. */
    double pixelRate() const { return width * static_cast<double>(height) * fps; }
};

/** Named presets matching the paper's evaluation resolutions. */
SensorConfig sensorPreset4K();      //!< 3840x2160 @ 60 (IMX274-like)
SensorConfig sensorPreset1080p();   //!< 1920x1080 @ 30
SensorConfig sensorPreset720p();    //!< 1280x720 @ 30
SensorConfig sensorPresetSvga();    //!< 800x600 @ 30
SensorConfig sensorPreset480p();    //!< 640x480 @ 30
SensorConfig sensorPreset240p();    //!< 320x240 @ 30

/**
 * Raster-scan sensor.
 */
class SensorModel
{
  public:
    explicit SensorModel(const SensorConfig &config);

    const SensorConfig &config() const { return config_; }

    /**
     * Mosaic an RGB scene into the RGGB Bayer pattern this sensor reads
     * out. The scene is resized to the sensor resolution if it differs.
     *
     * The mosaic lands in the sensor's raw buffer, which is reused from
     * frame to frame and returned (valid until the next capture; the CSI-2
     * link damages it in place). With a plan, only the rows a kept-pixel
     * ISP reads are mosaicked: y - 1 .. y + 1 of every row with a kept
     * pixel. The other rows keep stale bytes. Read noise still runs over
     * the whole buffer in raster order, so the noise sequence and every
     * row the ISP reads are those of a dense capture.
     */
    Image &capture(const Image &scene_rgb,
                   const KeptRunPlan *plan = nullptr);

    /**
     * Capture a grayscale frame directly (bypasses the mosaic; used by
     * workloads that run the pipeline in luminance mode).
     */
    Image captureGray(const Image &scene);

    /** Number of frames captured so far. */
    u64 frameCount() const { return frames_; }

  private:
    void addNoise(Image &img);

    SensorConfig config_;
    Rng rng_;
    u64 frames_ = 0;
    Image raw_; //!< the Bayer readout, reused across captures
};

} // namespace rpx

#endif // RPX_SENSOR_SENSOR_HPP
