#include "fleet/stream_context.hpp"

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

} // namespace

PipelineObs::PipelineObs(obs::ObsContext *ctx) : ctx_(ctx)
{
    if (!ctx_)
        return;
    obs::PerfRegistry &r = ctx_->registry();
    frames = &r.counter("pipeline.frames");
    bytes_written = &r.counter("pipeline.bytes_written");
    bytes_read = &r.counter("pipeline.bytes_read");
    metadata_bytes = &r.counter("pipeline.metadata_bytes");
    quarantined = &r.counter("pipeline.quarantined_frames");
    deadline_misses = &r.counter("pipeline.deadline_misses");
    transient_faults = &r.counter("pipeline.transient_faults");
    shed_frames = &r.counter("pipeline.shed_frames");
    dma_retries = &r.counter("pipeline.dma_retries");
    dma_dropped_bursts = &r.counter("pipeline.dma_dropped_bursts");
    kept_fraction = &r.gauge("pipeline.kept_fraction");
    footprint = &r.gauge("pipeline.footprint_bytes");
    energy_sense_ = &r.gauge("pipeline.energy_sense_nj");
    energy_csi_ = &r.gauge("pipeline.energy_csi_nj");
    energy_dram_ = &r.gauge("pipeline.energy_dram_nj");
    energy_total_ = &r.gauge("pipeline.energy_total_nj");
    h_sensor = &r.histogram("pipeline.stage.sensor_readout.latency_us");
    h_isp = &r.histogram("pipeline.stage.isp.latency_us");
    h_encode = &r.histogram("pipeline.stage.encode.latency_us");
    h_dram_write = &r.histogram("pipeline.stage.dram_write.latency_us");
    h_decode = &r.histogram("pipeline.stage.decode.latency_us");
    h_frame = &r.histogram("pipeline.frame.latency_us");
}

void
PipelineObs::addEnergy(double sense_nj, double csi_nj, double dram_nj)
{
    if (!energy_total_)
        return;
    std::lock_guard<std::mutex> lock(energy_mutex_);
    energy_sense_nj_ += sense_nj;
    energy_csi_nj_ += csi_nj;
    energy_dram_nj_ += dram_nj;
    energy_sense_->set(energy_sense_nj_);
    energy_csi_->set(energy_csi_nj_);
    energy_dram_->set(energy_dram_nj_);
    energy_total_->set(energy_sense_nj_ + energy_csi_nj_ +
                       energy_dram_nj_);
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

    ParallelDecoder::Config dc;
    dc.threads = config.decoder_threads;
    sw_decoder_ = std::make_unique<ParallelDecoder>(dc);

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
