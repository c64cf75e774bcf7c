#include "common/logging.h"

#include <cstdlib>
#include <string>

namespace geogrid {
namespace {

LogLevel g_level = LogLevel::kWarn;

/// Applies GEOGRID_LOG automatically at program start.
const struct EnvInit {
  EnvInit() { init_logging_from_env(); }
} g_env_init;

constexpr std::string_view level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

}  // namespace

LogLevel log_level() noexcept { return g_level; }

void init_logging_from_env() {
  const char* env = std::getenv("GEOGRID_LOG");
  if (env == nullptr) return;
  const std::string value(env);
  if (value == "trace") g_level = LogLevel::kTrace;
  else if (value == "debug") g_level = LogLevel::kDebug;
  else if (value == "info") g_level = LogLevel::kInfo;
  else if (value == "warn") g_level = LogLevel::kWarn;
  else if (value == "error") g_level = LogLevel::kError;
  else if (value == "off") g_level = LogLevel::kOff;
}

namespace detail {

void emit(LogLevel level, std::string_view message) {
  std::clog << '[' << level_name(level) << "] " << message << '\n';
}

}  // namespace detail
}  // namespace geogrid
