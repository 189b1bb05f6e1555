/**
 * @file
 * Status and error reporting helpers.
 *
 * Follows the gem5 convention: fatal() is for user error (bad
 * configuration or arguments; exits with status 1), panic() is for
 * internal invariant violations (aborts), warn()/inform() report
 * conditions without stopping execution.
 */

#ifndef HGPCN_COMMON_LOGGING_H
#define HGPCN_COMMON_LOGGING_H

#include <functional>
#include <sstream>
#include <string>

namespace hgpcn
{

/** Severity of a log message. */
enum class LogLevel
{
    Inform,
    Warn,
    Fatal,
    Panic,
};

/** Printable name of @p level ("inform", "warn", ...). */
const char *logLevelName(LogLevel level);

/**
 * Destination of formatted log messages. The default sink writes
 * "level: msg" lines — Inform to stdout, everything else to stderr.
 * Tests install a capturing sink to assert on warnings instead of
 * globally silencing them.
 */
using LogSink = std::function<void(LogLevel, const std::string &)>;

/**
 * Install @p sink as the log destination and return the previous
 * one (empty = the built-in default, and passing an empty sink
 * restores that default). The sink is called for every level,
 * including Fatal/Panic just before exit(1)/abort(). Delivery is
 * serialized under an internal mutex.
 */
LogSink setLogSink(LogSink sink);

/**
 * Emit a formatted log message.
 *
 * @param level Message severity; Fatal exits(1), Panic aborts.
 * @param msg Fully formatted message body.
 */
[[noreturn]] void logFatal(const std::string &msg);
[[noreturn]] void logPanic(const std::string &msg);
void logWarn(const std::string &msg);
void logInform(const std::string &msg);

/** Drop Inform/Warn messages before they reach the sink (legacy
 *  blanket switch; prefer a capturing sink in new tests). */
void setLogQuiet(bool quiet);

namespace detail
{

/** Fold a parameter pack into one string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

} // namespace detail

/**
 * Report an unrecoverable user-facing error and exit(1).
 * Use for invalid configuration or arguments.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    logFatal(detail::concat(std::forward<Args>(args)...));
}

/**
 * Report an internal invariant violation and abort().
 * Use only for conditions that indicate a bug in this library.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    logPanic(detail::concat(std::forward<Args>(args)...));
}

/** Report a suspicious-but-survivable condition. */
template <typename... Args>
void
warn(Args &&...args)
{
    logWarn(detail::concat(std::forward<Args>(args)...));
}

/** Report normal operating status. */
template <typename... Args>
void
inform(Args &&...args)
{
    logInform(detail::concat(std::forward<Args>(args)...));
}

/** panic() when @p cond does not hold. */
#define HGPCN_ASSERT(cond, ...)                                            \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::hgpcn::panic("assertion failed: ", #cond, " ",               \
                           ::hgpcn::detail::concat(__VA_ARGS__));          \
        }                                                                  \
    } while (0)

} // namespace hgpcn

#endif // HGPCN_COMMON_LOGGING_H
