/**
 * @file
 * A sensor frame: one raw point cloud plus capture metadata.
 *
 * Substitution note (see docs/DESIGN.md §2): the paper evaluates on
 * ModelNet40, ShapeNet, S3DIS and KITTI. Those datasets are not
 * available offline, so the generators in this directory synthesize
 * frames with matched scale, per-point labels and — critically for
 * the paper's experiments — controllable spatial non-uniformity
 * (octree depth driver, Fig. 11) and frame-generation timestamps
 * (real-time criterion, Section VII-E).
 */

#ifndef HGPCN_DATASETS_FRAME_H
#define HGPCN_DATASETS_FRAME_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
#include "geometry/point_cloud.h"

namespace hgpcn
{

/** One captured frame. */
struct Frame
{
    std::string name;        //!< e.g. "MN.piano", "kitti.avg"
    PointCloud cloud;        //!< raw points
    std::vector<int> labels; //!< per-point class (empty if unlabeled)
    double timestamp = 0.0;  //!< generation time, seconds
};

/**
 * Sensor generation rate implied by a stream's timestamps — the
 * yardstick of the Section VII-E real-time criterion. The single
 * authoritative derivation, shared by the streaming runtime's
 * RuntimeReport, the per-sensor serving rates and the sec7e bench.
 *
 * Stamped streams must be strictly increasing; a non-monotonic
 * ordering is a user error (fatal), not a silent negative-FPS
 * sensor. A stream whose stamps are all identical carries no timing
 * information (the non-LiDAR generators leave 0.0) and yields 0.0,
 * as does a stream of fewer than two frames.
 */
inline double
streamGenerationFps(const std::vector<Frame> &frames)
{
    if (frames.size() < 2)
        return 0.0;
    bool unstamped = true;
    for (const Frame &frame : frames) {
        if (frame.timestamp != frames.front().timestamp) {
            unstamped = false;
            break;
        }
    }
    if (unstamped)
        return 0.0;
    for (std::size_t i = 1; i < frames.size(); ++i) {
        if (frames[i].timestamp <= frames[i - 1].timestamp) {
            fatal("stream timestamps must be strictly increasing: "
                  "frame ", i - 1, " at ", frames[i - 1].timestamp,
                  "s, frame ", i, " at ", frames[i].timestamp, "s");
        }
    }
    const double span =
        frames.back().timestamp - frames.front().timestamp;
    return static_cast<double>(frames.size() - 1) / span;
}

} // namespace hgpcn

#endif // HGPCN_DATASETS_FRAME_H
