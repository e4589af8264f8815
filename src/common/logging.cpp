#include "common/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <set>

namespace vlm::common {

namespace {

std::atomic<LogLevel> g_level{[] {
  const char* env = std::getenv("VLM_LOG");
  return env ? parse_log_level(env) : LogLevel::kWarn;
}()};

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

}  // namespace

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

void set_log_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

LogLevel parse_log_level(const std::string& name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  // Same warn-and-fall-back convention as VLM_KERNELS: a
  // misspelled VLM_LOG should degrade loudly, once per distinct value,
  // instead of silently running at the wrong verbosity.
  static std::mutex mutex;
  static std::set<std::string>* warned = new std::set<std::string>();
  const std::lock_guard<std::mutex> lock(mutex);
  if (warned->insert(name).second) {
    std::fprintf(stderr,
                 "vlm: warning: log level '%s' is not one of "
                 "debug|info|warn|error|off; using info\n",
                 name.c_str());
  }
  return LogLevel::kInfo;
}

void log_message(LogLevel level, const std::string& message) {
  if (level < log_level() || level == LogLevel::kOff) return;
  std::cerr << "[" << level_name(level) << "] " << message << "\n";
}

}  // namespace vlm::common
