#include "fleet/stream_context.hpp"

#include <algorithm>
#include <iterator>

#include "common/error.hpp"

namespace rpx::fleet {

namespace {

SensorConfig
sensorConfigFor(const PipelineConfig &config)
{
    SensorConfig sc;
    sc.name = "sim";
    sc.width = config.width;
    sc.height = config.height;
    sc.fps = config.fps;
    return sc;
}

/** Registry names of PipelineObs's counters, in publish() order. */
constexpr const char *kCounterNames[] = {
    "pipeline.frames", "pipeline.bytes_written", "pipeline.bytes_read",
    "pipeline.metadata_bytes", "pipeline.quarantined_frames",
    "pipeline.deadline_misses", "pipeline.transient_faults",
    "pipeline.shed_frames", "pipeline.dma_retries",
    "pipeline.dma_dropped_bursts", "degrade.quarantined_frames",
    "degrade.held_frames", "degrade.deadline_misses"};

constexpr const char *kEnergyNames[] = {
    "pipeline.energy_sense_nj", "pipeline.energy_csi_nj",
    "pipeline.energy_dram_nj", "pipeline.energy_total_nj"};

} // namespace

PipelineObs::PipelineObs(obs::ObsContext *ctx) : ctx_(ctx)
{
    static_assert(std::size(kCounterNames) == kCounters);
    if (!ctx_)
        return;
    obs::PerfRegistry &r = ctx_->registry();
    for (size_t i = 0; i < kCounters - kLadderCounters; ++i)
        counters_[i] = &r.counter(kCounterNames[i]);
    for (size_t i = 0; i < energy_.size(); ++i)
        energy_[i] = &r.gauge(kEnergyNames[i]);
    kept_fraction = &r.gauge("pipeline.kept_fraction");
    footprint = &r.gauge("pipeline.footprint_bytes");
    h_sensor = &r.histogram("pipeline.stage.sensor_readout.latency_us");
    h_isp = &r.histogram("pipeline.stage.isp.latency_us");
    h_encode = &r.histogram("pipeline.stage.encode.latency_us");
    h_dram_write = &r.histogram("pipeline.stage.dram_write.latency_us");
    h_decode = &r.histogram("pipeline.stage.decode.latency_us");
    h_frame = &r.histogram("pipeline.frame.latency_us");
}

void
PipelineObs::attachLadder()
{
    if (!ctx_)
        return;
    for (size_t i = kCounters - kLadderCounters; i < kCounters; ++i)
        counters_[i] = &ctx_->registry().counter(kCounterNames[i]);
}

void
PipelineObs::publish(const FrameTotals &t)
{
    if (!ctx_)
        return;
    // pipeline.frames counts the frames that carry a result, as the
    // journal does; the ladder sees a shed frame as a missed one.
    const std::array<u64, kCounters> now = {
        t.frames - t.errors, t.bytes_written, t.bytes_read,
        t.metadata_bytes, t.quarantined, t.deadline_misses,
        t.transient_faults, t.shed_frames, t.dma_retries, t.dma_dropped_bursts,
        t.quarantined, t.quarantined, t.deadline_misses + t.shed_frames};
    for (size_t i = 0; i < kCounters; ++i)
        if (counters_[i])
            counters_[i]->add(now[i] - published_[i]);
    published_ = now;
    const double energy[] = {
        t.energy_sense_nj, t.energy_csi_nj, t.energy_dram_nj,
        t.energy_sense_nj + t.energy_csi_nj + t.energy_dram_nj};
    for (size_t i = 0; i < energy_.size(); ++i)
        energy_[i]->set(energy[i]);
}

void
FrameTotals::add(const PipelineFrameResult &r, bool errored)
{
    ++frames;
    if (errored) {
        ++errors;
        return;
    }
    deadline_misses += r.deadline_missed ? 1 : 0;
    quarantined += r.quarantined ? 1 : 0;
    shed_frames += r.shed ? 1 : 0;
    transient_faults += r.transient_faults;
    dma_retries += r.dma_retries;
    dma_dropped_bursts += r.dma_dropped_bursts;
    bytes_written += r.traffic.bytes_written;
    bytes_read += r.traffic.bytes_read;
    metadata_bytes += r.traffic.metadata_bytes;
    kept_sum += r.kept_fraction;
    energy_sense_nj += r.energy_sense_nj;
    energy_csi_nj += r.energy_csi_nj;
    energy_dram_nj += r.energy_dram_nj;
    footprint_peak = std::max(footprint_peak, r.traffic.footprint);
    footprint_mean +=
        (static_cast<double>(r.traffic.footprint) - footprint_mean) /
        static_cast<double>(frames - errors);
}

StreamContext::StreamContext(const PipelineConfig &config,
                             PipelineObs *shared, bool force_degradation)
    : config_(config), dram_(std::make_unique<DramModel>()),
      sensor_(sensorConfigFor(config)), csi_(), isp_(),
      registers_(config.max_regions), shared_(shared)
{
    if (config.history < 1)
        throwInvalid("pipeline history must be >= 1");

    driver_ = std::make_unique<RegionDriver>(registers_, config.width,
                                             config.height);
    runtime_ = std::make_unique<RegionRuntime>(*driver_);

    RhythmicEncoder::Config ec;
    ec.mode = config.comparison_mode;
    encoder_ = std::make_unique<RhythmicEncoder>(config.width,
                                                 config.height, ec);
    store_ = std::make_unique<FrameStore>(*dram_, config.width,
                                          config.height, config.history);

    sw_decoder_ = std::make_unique<SoftwareDecoder>();

    if (config.fault.enabled() || force_degradation) {
        if (config.fault.plan) {
            injector_ =
                std::make_unique<fault::FaultInjector>(*config.fault.plan);
            csi_.setFaultInjector(injector_.get());
            dram_->setFaultInjector(injector_.get());
            store_->setFaultInjector(injector_.get());
        }
        store_->enableMetadataCrc(config.fault.crc_metadata);
        degrade_ = std::make_unique<fault::DegradationController>(
            config.fault.degradation);
        if (shared_)
            shared_->attachLadder();
    }

    if (config.telemetry) {
        // Per-region journal entries need the encoder's conserving
        // work attribution; enabling it here keeps the knob implicit.
        encoder_->enableRegionAttribution(true);
    }

    if (shared_ && shared_->context()) {
        obs::ObsContext *ctx = shared_->context();
        dram_->attachObs(ctx);
        driver_->attachObs(ctx);
        encoder_->attachObs(ctx);
        if (injector_)
            injector_->attachObs(ctx);
        if (degrade_)
            degrade_->attachObs(ctx);
    }
}

} // namespace rpx::fleet
