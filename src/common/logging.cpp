#include "common/logging.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace hal {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kError};
std::mutex g_io_mutex;

constexpr const char* level_name(LogLevel l) {
  switch (l) {
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kTrace:
      return "TRACE";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) noexcept {
  g_level.store(level, std::memory_order_relaxed);
}

LogLevel log_level() noexcept {
  return g_level.load(std::memory_order_relaxed);
}

namespace detail {

void log_line(LogLevel level, NodeId node, std::string_view msg) {
  std::lock_guard lock(g_io_mutex);
  std::fprintf(stderr, "[hal %-5s n%02u] %.*s\n", level_name(level), node,
               static_cast<int>(msg.size()), msg.data());
}

}  // namespace detail
}  // namespace hal
