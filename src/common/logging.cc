#include "common/logging.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace hgpcn
{

namespace
{

bool quiet_flag = false;

/** Built-in destination: "level: msg" lines, Inform to stdout,
 *  everything else to stderr. */
void
defaultSink(LogLevel level, const std::string &msg)
{
    std::FILE *dst = level == LogLevel::Inform ? stdout : stderr;
    std::fprintf(dst, "%s: %s\n", logLevelName(level), msg.c_str());
}

std::mutex sink_mu;
LogSink user_sink; //!< empty = defaultSink

/** Route one message through the installed sink. Cold path: the
 *  mutex serializes delivery so a capturing sink needs no locking
 *  of its own. */
void
deliver(LogLevel level, const std::string &msg)
{
    std::lock_guard<std::mutex> lock(sink_mu);
    if (user_sink)
        user_sink(level, msg);
    else
        defaultSink(level, msg);
}

} // namespace

const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Inform:
        return "info";
      case LogLevel::Warn:
        return "warn";
      case LogLevel::Fatal:
        return "fatal";
      case LogLevel::Panic:
        return "panic";
    }
    return "unknown";
}

LogSink
setLogSink(LogSink sink)
{
    std::lock_guard<std::mutex> lock(sink_mu);
    LogSink prev = std::move(user_sink);
    user_sink = std::move(sink);
    return prev;
}

void
setLogQuiet(bool quiet)
{
    quiet_flag = quiet;
}

void
logFatal(const std::string &msg)
{
    deliver(LogLevel::Fatal, msg);
    std::exit(1);
}

void
logPanic(const std::string &msg)
{
    deliver(LogLevel::Panic, msg);
    std::abort();
}

void
logWarn(const std::string &msg)
{
    if (!quiet_flag)
        deliver(LogLevel::Warn, msg);
}

void
logInform(const std::string &msg)
{
    if (!quiet_flag)
        deliver(LogLevel::Inform, msg);
}

} // namespace hgpcn
