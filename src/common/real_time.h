/**
 * @file
 * The Section VII-E real-time verdict, shared by every report that
 * states it (runtime/RuntimeReport, serving/ServingReport).
 *
 * The criterion is "sustained processing rate >= sensor generation
 * rate". A run with no derivable generation rate — batch admission,
 * an unstamped stream, fewer than two frames — has no criterion to
 * meet, so the verdict is *not applicable* rather than a vacuous
 * YES: half the benches run batch mode, and a flagship number that
 * is trivially true there is worse than no number at all.
 */

#ifndef HGPCN_COMMON_REAL_TIME_H
#define HGPCN_COMMON_REAL_TIME_H

namespace hgpcn
{

/** Tri-state Section VII-E verdict. */
enum class RealTimeVerdict
{
    NotApplicable, //!< no generation rate derivable (batch/unstamped)
    Yes,           //!< sustained rate meets the sensor rate
    No,            //!< sustained rate falls behind the sensor rate
};

/**
 * Evaluate the criterion.
 *
 * @param sustained_fps Achieved processing rate.
 * @param generation_fps Sensor rate; <= 0 means "no rate derivable"
 *        (pass 0 for unpaced runs even when the stream is stamped —
 *        a batch run races no sensor).
 */
inline RealTimeVerdict
evaluateRealTime(double sustained_fps, double generation_fps)
{
    if (generation_fps <= 0.0)
        return RealTimeVerdict::NotApplicable;
    return sustained_fps >= generation_fps ? RealTimeVerdict::Yes
                                           : RealTimeVerdict::No;
}

/** @return "YES", "NO" or "n/a" for reports. */
inline const char *
realTimeVerdictName(RealTimeVerdict verdict)
{
    switch (verdict) {
      case RealTimeVerdict::NotApplicable:
        return "n/a";
      case RealTimeVerdict::Yes:
        return "YES";
      case RealTimeVerdict::No:
        return "NO";
    }
    return "?";
}

} // namespace hgpcn

#endif // HGPCN_COMMON_REAL_TIME_H
