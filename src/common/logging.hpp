// Minimal leveled logging.
//
// Off by default (level Error); tests and debugging sessions raise the level
// via set_log_level. Log lines carry the emitting node id so interleaved
// protocol traces stay readable.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/types.hpp"

namespace hal {

enum class LogLevel : std::uint8_t { kError = 0, kWarn, kInfo, kTrace };

void set_log_level(LogLevel level) noexcept;
LogLevel log_level() noexcept;

namespace detail {
void log_line(LogLevel level, NodeId node, std::string_view msg);
}

inline bool log_enabled(LogLevel level) noexcept {
  return static_cast<std::uint8_t>(level) <=
         static_cast<std::uint8_t>(log_level());
}

}  // namespace hal

// Logging macros take a pre-formatted message to keep the hot path free of
// formatting when the level is disabled.
#define HAL_LOG(level, node, msg)                        \
  do {                                                   \
    if (::hal::log_enabled(level)) [[unlikely]] {        \
      ::hal::detail::log_line((level), (node), (msg));   \
    }                                                    \
  } while (false)

#define HAL_TRACE(node, msg) HAL_LOG(::hal::LogLevel::kTrace, (node), (msg))
#define HAL_INFO(node, msg) HAL_LOG(::hal::LogLevel::kInfo, (node), (msg))
#define HAL_WARN(node, msg) HAL_LOG(::hal::LogLevel::kWarn, (node), (msg))
