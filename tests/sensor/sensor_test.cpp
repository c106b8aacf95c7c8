/** @file Unit tests for the sensor model and CSI-2 link. */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "core/encoder.hpp"
#include "isp/isp_pipeline.hpp"
#include "sensor/csi2.hpp"
#include "sensor/sensor.hpp"

namespace rpx {
namespace {

TEST(Sensor, PresetsMatchPaperResolutions)
{
    EXPECT_EQ(sensorPreset4K().width, 3840);
    EXPECT_EQ(sensorPreset4K().height, 2160);
    EXPECT_DOUBLE_EQ(sensorPreset4K().fps, 60.0);
    EXPECT_EQ(sensorPreset720p().width, 1280);
    EXPECT_EQ(sensorPresetSvga().width, 800);
    EXPECT_EQ(sensorPreset480p().height, 480);
}

TEST(Sensor, BayerMosaicRggbLayout)
{
    SensorConfig cfg = sensorPreset480p();
    cfg.width = 4;
    cfg.height = 4;
    SensorModel sensor(cfg);

    Image scene(4, 4, PixelFormat::Rgb8);
    for (i32 y = 0; y < 4; ++y) {
        for (i32 x = 0; x < 4; ++x) {
            scene.set(x, y, 0, 100); // R
            scene.set(x, y, 1, 150); // G
            scene.set(x, y, 2, 200); // B
        }
    }
    const Image raw = sensor.capture(scene);
    ASSERT_EQ(raw.format(), PixelFormat::BayerRggb);
    EXPECT_EQ(raw.at(0, 0), 100); // R site
    EXPECT_EQ(raw.at(1, 0), 150); // G site
    EXPECT_EQ(raw.at(0, 1), 150); // G site
    EXPECT_EQ(raw.at(1, 1), 200); // B site
}

TEST(Sensor, ResizesSceneToSensorResolution)
{
    SensorConfig cfg = sensorPreset480p();
    cfg.width = 8;
    cfg.height = 6;
    SensorModel sensor(cfg);
    Image scene(32, 32, PixelFormat::Rgb8);
    const Image raw = sensor.capture(scene);
    EXPECT_EQ(raw.width(), 8);
    EXPECT_EQ(raw.height(), 6);
}

TEST(Sensor, GrayCaptureAndFrameCount)
{
    SensorConfig cfg = sensorPreset480p();
    cfg.width = 8;
    cfg.height = 8;
    SensorModel sensor(cfg);
    Image scene(8, 8, PixelFormat::Gray8, 50);
    const Image g = sensor.captureGray(scene);
    EXPECT_EQ(g.at(3, 3), 50);
    sensor.captureGray(scene);
    EXPECT_EQ(sensor.frameCount(), 2u);
}

TEST(Sensor, NoiseIsBoundedAndSeeded)
{
    SensorConfig cfg = sensorPreset480p();
    cfg.width = 16;
    cfg.height = 16;
    cfg.read_noise_sigma = 2.0;
    SensorModel a(cfg), b(cfg);
    Image scene(16, 16, PixelFormat::Gray8, 128);
    const Image fa = a.captureGray(scene);
    const Image fb = b.captureGray(scene);
    EXPECT_EQ(fa, fb); // same seed -> identical noise
    int changed = 0;
    for (const u8 v : fa.data())
        if (v != 128)
            ++changed;
    EXPECT_GT(changed, 50);
}

TEST(Sensor, CaptureReusesItsRawBuffer)
{
    SensorConfig cfg = sensorPreset480p();
    cfg.width = 8;
    cfg.height = 6;
    SensorModel sensor(cfg);
    Image scene(8, 6, PixelFormat::Rgb8, 7);
    const u8 *first = sensor.capture(scene).data().data();
    EXPECT_EQ(sensor.capture(scene).data().data(), first);
    EXPECT_EQ(sensor.frameCount(), 2u);
}

/** An RGB scene of independent random bytes (every channel differs). */
Image
randomRgbScene(i32 w, i32 h, u64 seed)
{
    Image scene(w, h, PixelFormat::Rgb8);
    Rng rng(seed);
    for (u8 &v : scene.data())
        v = static_cast<u8>(rng.uniformInt(0, 255));
    return scene;
}

/** True when a kept-pixel ISP under `plan` reads row y (3x3 windows). */
bool
planReadsRow(const KeptRunPlan &plan, i32 y)
{
    for (i32 r = std::max(0, y - 1); r <= std::min(plan.height() - 1, y + 1);
         ++r)
        if (plan.rowKept(r) > 0)
            return true;
    return false;
}

/**
 * A planned capture against a dense one, both through a CSI-2 link that
 * drops lines and flips bytes, with read noise on: every row the plan's
 * 3x3 windows read is byte-identical, the link reports the same damage,
 * and a final dense capture matches over the whole frame, so noise and
 * fault draws advanced the same way on every planned frame.
 */
TEST(Sensor, PlannedCaptureMatchesDenseInEveryReadRow)
{
    constexpr i32 kW = 97;
    constexpr i32 kH = 63;
    SensorConfig cfg = sensorPreset480p();
    cfg.width = kW;
    cfg.height = kH;
    cfg.read_noise_sigma = 2.0;
    SensorModel planned(cfg), dense(cfg);

    fault::FaultPlan faults;
    faults.seed = 17;
    faults.at(fault::Stage::Csi2).byte_error_rate = 2e-3;
    faults.at(fault::Stage::Csi2).drop_rate = 0.05;
    fault::FaultInjector planned_inj(faults), dense_inj(faults);
    Csi2Link planned_link, dense_link;
    planned_link.setFaultInjector(&planned_inj);
    dense_link.setFaultInjector(&dense_inj);

    std::vector<RegionLabel> labels = {{0, 0, kW, kH, 4, 2, 0},
                                       {10, 5, 30, 20, 1, 3, 1},
                                       {40, 30, 50, 25, 2, 2, 0},
                                       {60, 50, 20, 13, 3, 4, 2}};
    sortRegionsByY(labels);
    RhythmicEncoder enc(kW, kH);
    enc.setRegionLabels(labels);
    IspPipeline isp;

    u32 dropped = 0, unread_rows = 0;
    u64 corrupted = 0;
    for (FrameIndex t = 0; t < 8; ++t) {
        const Image scene = randomRgbScene(kW, kH, 900 + t);
        const KeptRunPlan &plan = enc.planFrame(t);

        Image &a = planned.capture(scene, &plan);
        Image &b = dense.capture(scene);
        const Csi2FrameStatus sa = planned_link.transferFrame(a, 30.0);
        const Csi2FrameStatus sb = dense_link.transferFrame(b, 30.0);
        EXPECT_EQ(sa.ok, sb.ok) << t;
        EXPECT_EQ(sa.rate_supported, sb.rate_supported) << t;
        ASSERT_EQ(sa.dropped_lines, sb.dropped_lines) << t;
        ASSERT_EQ(sa.corrupted_bytes, sb.corrupted_bytes) << t;
        dropped += sa.dropped_lines;
        corrupted += sa.corrupted_bytes;

        for (i32 y = 0; y < kH; ++y) {
            if (!planReadsRow(plan, y)) {
                ++unread_rows;
                continue;
            }
            ASSERT_TRUE(std::equal(a.row(y), a.row(y) + kW, b.row(y)))
                << "frame " << t << " row " << y;
        }
        Image gray_a, gray_b;
        isp.processKept(a, plan, gray_a);
        isp.processKept(b, plan, gray_b);
        ASSERT_EQ(gray_a, gray_b) << t;
    }
    // The plan skipped rows, and the link did damage frames.
    EXPECT_GT(unread_rows, 0u);
    EXPECT_GT(dropped, 0u);
    EXPECT_GT(corrupted, 0u);

    const Image scene = randomRgbScene(kW, kH, 999);
    Image &a = planned.capture(scene);
    Image &b = dense.capture(scene);
    const Csi2FrameStatus sa = planned_link.transferFrame(a, 30.0);
    const Csi2FrameStatus sb = dense_link.transferFrame(b, 30.0);
    EXPECT_EQ(sa.dropped_lines, sb.dropped_lines);
    EXPECT_EQ(sa.corrupted_bytes, sb.corrupted_bytes);
    EXPECT_EQ(a, b);
}

TEST(Sensor, CaptureRejectsMismatchedPlan)
{
    SensorConfig cfg = sensorPreset480p();
    cfg.width = 8;
    cfg.height = 6;
    SensorModel sensor(cfg);
    RhythmicEncoder enc(8, 8);
    enc.setRegionLabels({{0, 0, 8, 8, 1, 1, 0}});
    Image scene(8, 6, PixelFormat::Rgb8);
    EXPECT_THROW(sensor.capture(scene, &enc.planFrame(0)),
                 std::invalid_argument);
}

TEST(Sensor, RejectsBadConfig)
{
    SensorConfig cfg;
    cfg.width = 0;
    EXPECT_THROW(SensorModel{cfg}, std::invalid_argument);
}

TEST(Csi2, BandwidthCheck4K60)
{
    Csi2Link link; // 4 lanes x 1.44 Gbps
    const u64 pixels_4k = 3840ULL * 2160ULL;
    // 4K60 RAW10 needs ~5.2 Gbps of the 5.76 Gbps the link offers.
    EXPECT_TRUE(link.supportsRate(pixels_4k, 60.0));
    EXPECT_FALSE(link.supportsRate(pixels_4k, 120.0));
}

TEST(Csi2, TransferAccounting)
{
    Csi2Link link;
    link.transferFrame(1000);
    link.transferFrame(500);
    EXPECT_EQ(link.pixelsTransferred(), 1500u);
    // 1 nJ/pixel default.
    EXPECT_NEAR(link.energyJoules(), 1500e-9, 1e-12);
    EXPECT_GT(link.bitsTransferred(), 15000.0); // 10 bpp + overhead
}

} // namespace
} // namespace rpx
