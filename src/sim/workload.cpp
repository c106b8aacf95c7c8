#include "sim/workload.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "policy/box_policy.hpp"
#include "policy/cycle_policy.hpp"
#include "policy/feature_policy.hpp"
#include "policy/mv_policy.hpp"
#include "vision/eval.hpp"
#include "vision/face_detector.hpp"
#include "vision/kmeans.hpp"
#include "vision/pose_estimator.hpp"

namespace rpx {

namespace {

/**
 * Produce the labels for frame `t` under a scheme, given the cycle policy
 * (already fed with tracked regions).
 */
std::vector<RegionLabel>
labelsFor(const WorkloadConfig &config, const CyclePolicy &cycle,
          FrameIndex t, i32 w, i32 h)
{
    switch (config.scheme) {
      case CaptureScheme::FCH:
      case CaptureScheme::H264:
        return {fullFrameRegion(w, h)};
      case CaptureScheme::FCL: {
        RegionLabel r = fullFrameRegion(w, h);
        r.stride = config.fcl_stride;
        return {r};
      }
      case CaptureScheme::RP:
        return cycle.regionsFor(t);
      case CaptureScheme::MultiRoi: {
        // The multi-ROI camera reads dense windows: take the cycle
        // policy's labels, drop stride/skip, merge to the window budget.
        std::vector<RegionLabel> labels = cycle.regionsFor(t);
        std::vector<Rect> rects;
        rects.reserve(labels.size());
        for (const auto &l : labels)
            rects.push_back(l.rect());
        const auto merged =
            mergeRectsKMeans(rects, config.multi_roi_windows);
        std::vector<RegionLabel> out;
        out.reserve(merged.size());
        for (const auto &m : merged)
            out.push_back(RegionLabel{m.x, m.y, m.w, m.h, 1, 1, 0});
        sortRegionsByY(out);
        return out;
      }
    }
    throwInvalid("unknown capture scheme");
}

void
finishRunBase(WorkloadRunBase &base, const VisionPipeline &pipeline,
              const WorkloadConfig &config, i32 w, i32 h, double fps)
{
    base.scheme_name = schemeName(config.scheme, config.cycle_length);
    base.pipeline_traffic = pipeline.traffic();
    base.width = w;
    base.height = h;
    base.fps = fps;
}

} // namespace

RegionTraceStats
analyzeTrace(const RegionTrace &trace, i32 frame_w, i32 frame_h)
{
    RegionTraceStats stats;
    u64 tracked_frames = 0;
    u64 tracked_regions = 0;
    bool first = true;
    for (const auto &labels : trace) {
        const bool full_capture =
            labels.size() == 1 && labels[0].w == frame_w &&
            labels[0].h == frame_h && labels[0].stride == 1;
        if (!full_capture) {
            ++tracked_frames;
            tracked_regions += labels.size();
        }
        for (const auto &r : labels) {
            if (full_capture)
                continue; // Table 4 describes the tracked regions
            if (first) {
                stats.min_w = stats.max_w = r.w;
                stats.min_h = stats.max_h = r.h;
                stats.min_stride = stats.max_stride = r.stride;
                stats.min_skip = stats.max_skip = r.skip;
                first = false;
            } else {
                stats.min_w = std::min(stats.min_w, r.w);
                stats.max_w = std::max(stats.max_w, r.w);
                stats.min_h = std::min(stats.min_h, r.h);
                stats.max_h = std::max(stats.max_h, r.h);
                stats.min_stride = std::min(stats.min_stride, r.stride);
                stats.max_stride = std::max(stats.max_stride, r.stride);
                stats.min_skip = std::min(stats.min_skip, r.skip);
                stats.max_skip = std::max(stats.max_skip, r.skip);
            }
        }
    }
    if (tracked_frames > 0)
        stats.avg_regions_per_frame =
            static_cast<double>(tracked_regions) /
            static_cast<double>(tracked_frames);
    return stats;
}

SlamRunResult
runSlamWorkload(const SlamSequenceConfig &sequence_cfg,
                const WorkloadConfig &config)
{
    const SlamSequence sequence(sequence_cfg);
    const i32 w = sequence_cfg.width;
    const i32 h = sequence_cfg.height;

    PipelineConfig pc;
    pc.width = w;
    pc.height = h;
    pc.obs = config.obs;
    pc.telemetry = config.telemetry;
    VisionPipeline pipeline(pc);

    SlamConfig sc;
    sc.camera = sequence.camera();
    SlamTracker tracker(sc);
    const auto landmarks = sequence.landmarkPositions();

    CyclePolicy cycle(w, h, config.cycle_length);
    FeaturePolicy feature_policy(w, h);
    MotionVectorPolicy mv_policy(w, h);
    const bool use_mv =
        config.region_policy == RegionPolicyKind::MotionVector;

    SlamRunResult result;
    std::vector<Pose> estimated;
    estimated.reserve(static_cast<size_t>(sequence.frames()));
    u64 tracked_ok = 0;

    for (int t = 0; t < sequence.frames(); ++t) {
        const auto labels = labelsFor(config, cycle, t, w, h);
        pipeline.runtime().setRegionLabels(labels);
        result.trace.push_back(labels);

        const auto frame = pipeline.processFrame(sequence.renderFrame(t));
        result.kept_per_frame.push_back(frame.kept_fraction);

        if (t == 0) {
            // Bootstrap: build the map from the first (full) capture with
            // ground truth, standard practice for tracking evaluation.
            tracker.buildMap(frame.decoded, sequence.groundTruth()[0],
                             landmarks);
            estimated.push_back(sequence.groundTruth()[0]);
            feature_policy.observe(
                detectOrb(frame.decoded, sc.orb));
            cycle.setTrackedRegions(feature_policy.regionsForNextFrame());
            ++tracked_ok;
            continue;
        }

        const TrackResult tr = tracker.track(frame.decoded);
        estimated.push_back(tr.pose);
        if (tr.tracked)
            ++tracked_ok;

        // Periodically refresh the map descriptors against the current
        // estimate so appearance stays current (§3.4: full captures
        // provide coverage). The cadence is scheme-independent.
        if (config.refresh_map && tr.tracked &&
            t % config.map_refresh_interval == 0) {
            tracker.buildMap(frame.decoded, tr.pose, landmarks);
        }

        feature_policy.observe(tr.features);
        if (use_mv) {
            mv_policy.observe(frame.decoded);
            if (cycle.isFullCapture(t))
                mv_policy.seedRegions(
                    feature_policy.regionsForNextFrame());
        }
        if (tr.tracked) {
            cycle.setTrackedRegions(
                use_mv ? mv_policy.regionsForNextFrame()
                       : feature_policy.regionsForNextFrame());
        } else {
            // Tracking lost: clear the proposals so the cycle policy
            // falls back to full-frame capture until the tracker
            // recovers (the recovery behaviour §4.3.1's full captures
            // exist to provide).
            cycle.setTrackedRegions({});
        }
    }

    result.metrics =
        computeTrajectoryMetrics(sequence.groundTruth(), estimated);
    result.tracked_fraction = static_cast<double>(tracked_ok) /
                              static_cast<double>(sequence.frames());
    finishRunBase(result, pipeline, config, w, h, 30.0);
    return result;
}

DetectionRunResult
runFaceWorkload(const FaceSequenceConfig &sequence_cfg,
                const WorkloadConfig &config)
{
    const FaceSequence sequence(sequence_cfg);
    const i32 w = sequence_cfg.width;
    const i32 h = sequence_cfg.height;

    PipelineConfig pc;
    pc.width = w;
    pc.height = h;
    pc.obs = config.obs;
    pc.telemetry = config.telemetry;
    VisionPipeline pipeline(pc);

    FaceDetector detector;
    CyclePolicy cycle(w, h, config.cycle_length);
    BoxPolicy box_policy(w, h);

    DetectionRunResult result;
    std::vector<FrameEval> evals;
    for (int t = 0; t < sequence.frames(); ++t) {
        const auto labels = labelsFor(config, cycle, t, w, h);
        pipeline.runtime().setRegionLabels(labels);
        result.trace.push_back(labels);

        const auto frame = pipeline.processFrame(sequence.renderFrame(t));
        result.kept_per_frame.push_back(frame.kept_fraction);

        const auto detections = detector.detect(frame.decoded);
        evals.push_back(
            evaluateFrame(detections, sequence.groundTruth(t), 0.5));

        std::vector<Rect> boxes;
        boxes.reserve(detections.size());
        for (const auto &d : detections)
            boxes.push_back(d.box);
        box_policy.observe(boxes);
        cycle.setTrackedRegions(box_policy.regionsForNextFrame());
    }

    result.map_percent = meanAveragePrecision(evals);
    result.recall_percent = recall(evals);
    result.f1_percent = f1Score(evals);
    finishRunBase(result, pipeline, config, w, h, 30.0);
    return result;
}

DetectionRunResult
runPoseWorkload(const PoseSequenceConfig &sequence_cfg,
                const WorkloadConfig &config)
{
    const PoseSequence sequence(sequence_cfg);
    const i32 w = sequence_cfg.width;
    const i32 h = sequence_cfg.height;

    PipelineConfig pc;
    pc.width = w;
    pc.height = h;
    pc.obs = config.obs;
    pc.telemetry = config.telemetry;
    VisionPipeline pipeline(pc);

    PoseEstimator estimator;
    CyclePolicy cycle(w, h, config.cycle_length);
    // Person regions are large; joint blobs are small. Cap the stride at 2
    // and only coarsen very large (near-camera) persons, or the decimation
    // destroys the joint response entirely.
    BoxPolicyConfig bpc;
    bpc.small_box = 256;
    bpc.max_stride = 2;
    BoxPolicy box_policy(w, h, bpc);

    DetectionRunResult result;
    std::vector<FrameEval> evals;
    std::vector<KeypointPair> keypoint_pairs;
    constexpr i32 kJointBox = 24; //!< IoU box side around a keypoint

    for (int t = 0; t < sequence.frames(); ++t) {
        const auto labels = labelsFor(config, cycle, t, w, h);
        pipeline.runtime().setRegionLabels(labels);
        result.trace.push_back(labels);

        const auto frame = pipeline.processFrame(sequence.renderFrame(t));
        result.kept_per_frame.push_back(frame.kept_fraction);

        const auto keypoints = estimator.detect(frame.decoded);
        const auto detections =
            PoseEstimator::keypointsToDetections(keypoints, kJointBox);

        std::vector<Rect> gt_boxes;
        for (const auto &person : sequence.groundTruth(t)) {
            for (const auto &j : person.joints) {
                gt_boxes.push_back(Rect{j.x - kJointBox / 2,
                                        j.y - kJointBox / 2, kJointBox,
                                        kJointBox});
            }
        }
        evals.push_back(evaluateFrame(detections, gt_boxes, 0.5));

        // PCK: each ground-truth joint pairs with its nearest detected
        // keypoint, normalised by the person's bbox diagonal.
        for (const auto &person : sequence.groundTruth(t)) {
            const double diag = std::sqrt(
                static_cast<double>(person.bbox.w) * person.bbox.w +
                static_cast<double>(person.bbox.h) * person.bbox.h);
            for (const auto &j : person.joints) {
                KeypointPair pair;
                pair.gt_x = j.x;
                pair.gt_y = j.y;
                pair.norm_scale = diag;
                double best = 1e18;
                for (const auto &k : keypoints) {
                    const double dx = k.x - j.x, dy = k.y - j.y;
                    const double d2 = dx * dx + dy * dy;
                    if (d2 < best) {
                        best = d2;
                        pair.pred_x = k.x;
                        pair.pred_y = k.y;
                        pair.predicted = true;
                    }
                }
                keypoint_pairs.push_back(pair);
            }
        }

        // The region policy follows person boxes derived from the app's
        // own outputs (§5.3.2: "skeletal pose joints for determining the
        // regions"): detected keypoints are grouped into persons by
        // proximity and each group's bounding box becomes a track.
        std::vector<Rect> person_boxes;
        constexpr double kGroupRadius = 160.0;
        std::vector<Point> centroids;
        std::vector<Rect> groups;
        std::vector<int> members;
        for (const auto &k : keypoints) {
            int best = -1;
            double best_d2 = kGroupRadius * kGroupRadius;
            for (size_t g = 0; g < centroids.size(); ++g) {
                const double dx = k.x - centroids[g].x;
                const double dy = k.y - centroids[g].y;
                if (dx * dx + dy * dy < best_d2) {
                    best_d2 = dx * dx + dy * dy;
                    best = static_cast<int>(g);
                }
            }
            const Rect kp_box{static_cast<i32>(k.x) - 4,
                              static_cast<i32>(k.y) - 4, 8, 8};
            if (best < 0) {
                groups.push_back(kp_box);
                centroids.push_back(kp_box.center());
                members.push_back(1);
            } else {
                const auto g = static_cast<size_t>(best);
                groups[g] = groups[g].unite(kp_box);
                centroids[g] = groups[g].center();
                ++members[g];
            }
        }
        for (size_t g = 0; g < groups.size(); ++g) {
            if (members[g] >= 3) // a person shows several joints
                person_boxes.push_back(groups[g].inflated(20));
        }
        box_policy.observe(person_boxes);
        cycle.setTrackedRegions(box_policy.regionsForNextFrame());
    }

    result.map_percent = meanAveragePrecision(evals);
    result.recall_percent = recall(evals);
    result.f1_percent = f1Score(evals);
    result.pck_percent = pck(keypoint_pairs);
    finishRunBase(result, pipeline, config, w, h, 30.0);
    return result;
}

} // namespace rpx
