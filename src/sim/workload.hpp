/**
 * @file
 * The three evaluation workloads (Table 3): V-SLAM, human pose estimation,
 * and face detection, each runnable under every capture scheme (§5.3
 * baselines). Each run produces task accuracy, the per-frame region-label
 * trace (input to the throughput simulator), measured pipeline traffic, and
 * per-frame kept-pixel fractions (Figs. 10-15).
 */

#ifndef RPX_SIM_WORKLOAD_HPP
#define RPX_SIM_WORKLOAD_HPP

#include <string>
#include <vector>

#include "datasets/face_dataset.hpp"
#include "datasets/pose_dataset.hpp"
#include "datasets/slam_dataset.hpp"
#include "sim/pipeline.hpp"
#include "sim/platform.hpp"
#include "sim/throughput_sim.hpp"
#include "vision/slam.hpp"

namespace rpx {

/** Content policy driving the tracked regions of the SLAM workload. */
enum class RegionPolicyKind {
    Feature,      //!< re-detect features per frame (§3.4's policy)
    MotionVector, //!< extrapolate regions along block motion (§4.3.1)
};

/** Scheme + policy parameters for one workload run. */
struct WorkloadConfig {
    CaptureScheme scheme = CaptureScheme::RP;
    int cycle_length = 10;   //!< CL for RP / Multi-ROI full captures
    int fcl_stride = 3;      //!< FCL: full-frame stride (resolution drop)
    int multi_roi_windows = 16;
    RegionPolicyKind region_policy = RegionPolicyKind::Feature;
    /**
     * SLAM map-descriptor refresh. The interval is fixed (not tied to the
     * cycle length) so every scheme pays the same re-localisation cost and
     * accuracy differences isolate the capture quality.
     */
    bool refresh_map = true;
    int map_refresh_interval = 15;
    /**
     * Optional observability context handed to the run's VisionPipeline
     * (see PipelineConfig::obs). Not owned; null disables instrumentation.
     */
    obs::ObsContext *obs = nullptr;
    /**
     * Optional telemetry sink handed to the run's VisionPipeline (see
     * PipelineConfig::telemetry). Not owned; null disables per-frame
     * attribution and journaling.
     */
    obs::TelemetrySink *telemetry = nullptr;
};

/** Region statistics of a trace (Table 4). */
struct RegionTraceStats {
    double avg_regions_per_frame = 0.0; //!< tracked (non-full) frames only
    i32 min_w = 0, max_w = 0;
    i32 min_h = 0, max_h = 0;
    i32 min_stride = 1, max_stride = 1;
    i32 min_skip = 1, max_skip = 1;
};

RegionTraceStats analyzeTrace(const RegionTrace &trace, i32 frame_w,
                              i32 frame_h);

/** Common outputs of any workload run. */
struct WorkloadRunBase {
    std::string scheme_name;
    RegionTrace trace;                 //!< labels per frame
    std::vector<double> kept_per_frame; //!< encoded fraction per frame
    TrafficSummary pipeline_traffic;   //!< measured at simulation scale
    double fps = 30.0;
    i32 width = 0;
    i32 height = 0;
};

/** V-SLAM run outputs. */
struct SlamRunResult : WorkloadRunBase {
    TrajectoryMetrics metrics;
    double tracked_fraction = 0.0; //!< frames with a successful pose update
};

/** Detection-style run outputs (face / pose). */
struct DetectionRunResult : WorkloadRunBase {
    double map_percent = 0.0;
    double recall_percent = 0.0;
    double f1_percent = 0.0;
    /** Pose only: percentage of correct keypoints (PCK @ 0.2). */
    double pck_percent = 0.0;
};

/** Run the V-SLAM workload on one sequence under one scheme. */
SlamRunResult runSlamWorkload(const SlamSequenceConfig &sequence,
                              const WorkloadConfig &config);

/** Run the face-detection workload under one scheme. */
DetectionRunResult runFaceWorkload(const FaceSequenceConfig &sequence,
                                   const WorkloadConfig &config);

/** Run the pose-estimation workload under one scheme. */
DetectionRunResult runPoseWorkload(const PoseSequenceConfig &sequence,
                                   const WorkloadConfig &config);

} // namespace rpx

#endif // RPX_SIM_WORKLOAD_HPP
