// Lightweight leveled logging.
//
// The simulator is single-threaded and deterministic, so the logger is a
// plain global with a level gate; protocol traces (kTrace) are invaluable
// when debugging join/adaptation message flows but are off by default.
#pragma once

#include <iostream>
#include <sstream>
#include <string_view>

namespace geogrid {

enum class LogLevel : int { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4, kOff = 5 };

/// Global log threshold; messages below it are skipped (and their streaming
/// arguments never rendered).
LogLevel log_level() noexcept;

/// Reads GEOGRID_LOG (trace|debug|info|warn|error|off) once at startup.
void init_logging_from_env();

namespace detail {
void emit(LogLevel level, std::string_view message);
}

}  // namespace geogrid

#define GEOGRID_LOG(level, expr)                                        \
  do {                                                                  \
    if (static_cast<int>(level) >= static_cast<int>(::geogrid::log_level())) { \
      std::ostringstream geogrid_log_os;                                \
      geogrid_log_os << expr;                                           \
      ::geogrid::detail::emit(level, geogrid_log_os.str());             \
    }                                                                   \
  } while (false)

#define GEOGRID_TRACE(expr) GEOGRID_LOG(::geogrid::LogLevel::kTrace, expr)
#define GEOGRID_DEBUG(expr) GEOGRID_LOG(::geogrid::LogLevel::kDebug, expr)
#define GEOGRID_INFO(expr) GEOGRID_LOG(::geogrid::LogLevel::kInfo, expr)
#define GEOGRID_WARN(expr) GEOGRID_LOG(::geogrid::LogLevel::kWarn, expr)
#define GEOGRID_ERROR(expr) GEOGRID_LOG(::geogrid::LogLevel::kError, expr)
