/**
 * @file
 * Overload semantics of the virtual-time scheduler
 * (runtime/virtual_timeline.h): what a full queue does with an
 * incoming frame. Overload is decided only on the virtual timeline;
 * the runtime's wall-clock queues (common/bounded_queue.h) always
 * block.
 */

#ifndef HGPCN_COMMON_OVERLOAD_POLICY_H
#define HGPCN_COMMON_OVERLOAD_POLICY_H

namespace hgpcn
{

/** What a full queue does with an incoming element. */
enum class OverloadPolicy
{
    Block,      //!< producer waits for space (back-pressure)
    DropOldest, //!< evict the front, admit the newcomer
    DropNewest, //!< refuse the newcomer
};

/** @return human-readable policy name. */
inline const char *
overloadPolicyName(OverloadPolicy policy)
{
    switch (policy) {
      case OverloadPolicy::Block:
        return "block";
      case OverloadPolicy::DropOldest:
        return "drop-oldest";
      case OverloadPolicy::DropNewest:
        return "drop-newest";
    }
    return "?";
}

} // namespace hgpcn

#endif // HGPCN_COMMON_OVERLOAD_POLICY_H
