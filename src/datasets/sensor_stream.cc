#include "datasets/sensor_stream.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace hgpcn
{

std::vector<Frame>
SensorStream::framesOfSensor(std::size_t sensor) const
{
    HGPCN_ASSERT(frames.size() == sensors.size(),
                 "frames/sensors tags out of sync");
    std::vector<Frame> out;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        if (sensors[i] == sensor)
            out.push_back(frames[i]);
    }
    return out;
}

SensorStream
mergeSensorStreams(std::vector<std::vector<Frame>> per_sensor)
{
    SensorStream stream;
    stream.sensorCount = per_sensor.size();

    // K-way merge by timestamp. Equal stamps across sensors — or
    // non-increasing stamps within one — would make the interleave
    // (and any per-shard sub-stream) non-strict, which the paced
    // runtime rejects. Malformed stamps are sensor *data*, not
    // programmer error: reject the offending frame (warn + count),
    // keep merging the well-formed rest, and reserve fatal for
    // genuinely unusable configuration.
    std::vector<std::size_t> cursor(per_sensor.size(), 0);
    while (true) {
        std::size_t best = per_sensor.size();
        for (std::size_t s = 0; s < per_sensor.size(); ++s) {
            if (cursor[s] >= per_sensor[s].size())
                continue;
            if (best == per_sensor.size() ||
                per_sensor[s][cursor[s]].timestamp <
                    per_sensor[best][cursor[best]].timestamp) {
                best = s;
            }
        }
        if (best == per_sensor.size())
            break;
        const Frame &head = per_sensor[best][cursor[best]];
        if (!stream.frames.empty() &&
            head.timestamp <= stream.frames.back().timestamp) {
            // Distinguish a sensor that does not advance its own
            // clock (unstamped or duplicated captures) from a
            // cross-sensor collision, where the actionable fix is
            // phase offsets.
            if (stream.sensors.back() == best) {
                warn("rejecting frame '", head.name, "': sensor ",
                     best, " does not advance its timestamp (",
                     head.timestamp, "s after ",
                     stream.frames.back().timestamp,
                     "s) — stamp frames with strictly increasing "
                     "capture times");
            } else {
                warn("rejecting frame '", head.name, "': sensor ",
                     best, " at ", head.timestamp,
                     "s does not advance the interleave past "
                     "sensor ", stream.sensors.back(), " at ",
                     stream.frames.back().timestamp,
                     "s — give same-rate sensors distinct phase "
                     "offsets");
            }
            ++stream.rejectedFrames;
            ++cursor[best];
            continue;
        }
        stream.frames.push_back(
            std::move(per_sensor[best][cursor[best]]));
        stream.sensors.push_back(best);
        ++cursor[best];
    }
    return stream;
}

double
sensorGenerationFps(const SensorStream &stream, std::size_t sensor)
{
    return streamGenerationFps(stream.framesOfSensor(sensor));
}

SensorStream
makeLidarSensorStream(const MultiSensorConfig &cfg)
{
    HGPCN_ASSERT(cfg.sensors >= 1, "need at least one sensor");
    HGPCN_ASSERT(cfg.lidar.frameRateHz > 0.0,
                 "sensor frame rate must be positive");
    const double period = 1.0 / cfg.lidar.frameRateHz;
    std::vector<std::vector<Frame>> per_sensor;
    per_sensor.reserve(cfg.sensors);
    for (std::size_t s = 0; s < cfg.sensors; ++s) {
        KittiLike::Config lidar_cfg = cfg.lidar;
        lidar_cfg.seed = cfg.lidar.seed + s; // distinct scenes
        const KittiLike lidar(lidar_cfg);
        const double phase =
            period * static_cast<double>(s) /
            static_cast<double>(cfg.sensors);
        std::vector<Frame> frames;
        frames.reserve(cfg.framesPerSensor);
        for (std::size_t f = 0; f < cfg.framesPerSensor; ++f) {
            Frame frame = lidar.generate(f);
            frame.timestamp += phase;
            frame.name = std::string("s")
                             .append(std::to_string(s))
                             .append(".")
                             .append(frame.name);
            frames.push_back(std::move(frame));
        }
        per_sensor.push_back(std::move(frames));
    }
    return mergeSensorStreams(std::move(per_sensor));
}

} // namespace hgpcn
