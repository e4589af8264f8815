// The "host" object every JSON baseline carries, so a number can be read
// against the machine it was measured on: core count, the kernel ISA the
// runtime dispatch selected, the CMake build type and the compiler.
#pragma once

#include <string>

#include "common/kernels/kernels.h"
#include "common/parallel.h"

#ifndef VLM_BUILD_TYPE
#define VLM_BUILD_TYPE "unknown"
#endif

namespace vlm::bench {

#if defined(__clang__)
inline constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
inline constexpr const char* kCompiler = "gcc " __VERSION__;
#else
inline constexpr const char* kCompiler = "unknown";
#endif

inline std::string host_json() {
  return std::string("{\"nproc\": ") +
         std::to_string(common::default_worker_count()) +
         ", \"kernel_isa\": \"" + common::kernels::active_name() +
         "\", \"build_type\": \"" + VLM_BUILD_TYPE + "\", \"compiler\": \"" +
         kCompiler + "\"}";
}

}  // namespace vlm::bench
