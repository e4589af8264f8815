// Runtime ISA selection: compiled-in variants ∩ CPUID features, with a
// VLM_KERNELS environment override so CI, sanitizer jobs, and A/B
// benches can pin one code path deterministically.
#include "common/kernels/kernels.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "common/require.h"

namespace vlm::common::kernels {
namespace {

bool cpu_supports(Isa isa) {
#if defined(__x86_64__)
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Isa::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512vpopcntdq") != 0;
  }
  return false;
#else
  return isa == Isa::kScalar;
#endif
}

const KernelTable* compiled_table(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return &scalar_table();
    case Isa::kAvx2:
      return detail::avx2_table();
    case Isa::kAvx512:
      return detail::avx512_table();
  }
  return nullptr;
}

// The ISA VLM_KERNELS pins, matched exactly. Unset, empty and "auto"
// pin nothing; so does an unrecognized value, after a stderr warning.
std::optional<Isa> requested_isa() {
  const char* text = std::getenv("VLM_KERNELS");
  if (text == nullptr || *text == '\0' || std::strcmp(text, "auto") == 0) {
    return std::nullopt;
  }
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (std::strcmp(text, isa_name(isa)) == 0) return isa;
  }
  std::fprintf(stderr,
               "vlm: warning: VLM_KERNELS='%s' is not one of "
               "scalar|avx2|avx512|auto; keeping the default\n",
               text);
  return std::nullopt;
}

// Runs once, under active()'s magic static, so the warnings above and
// below print at most once per process.
const KernelTable& select_active() {
  Isa chosen = Isa::kScalar;
  if (available(Isa::kAvx2)) chosen = Isa::kAvx2;
  if (available(Isa::kAvx512)) chosen = Isa::kAvx512;
  if (const std::optional<Isa> requested = requested_isa()) {
    if (available(*requested)) {
      chosen = *requested;
    } else {
      // Fall back instead of crashing so one exported value works
      // across a heterogeneous CI fleet.
      std::fprintf(stderr,
                   "vlm: warning: VLM_KERNELS=%s is unavailable on this host "
                   "(%s); using %s\n",
                   isa_name(*requested),
                   compiled(*requested) ? "CPU lacks the feature"
                                        : "variant not compiled in",
                   isa_name(chosen));
    }
  }
  return *compiled_table(chosen);
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool compiled(Isa isa) { return compiled_table(isa) != nullptr; }

bool available(Isa isa) { return compiled(isa) && cpu_supports(isa); }

std::vector<Isa> available_isas() {
  std::vector<Isa> out;
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (available(isa)) out.push_back(isa);
  }
  return out;
}

const KernelTable& table_for(Isa isa) {
  VLM_REQUIRE(available(isa), "kernel ISA is not available on this host");
  return *compiled_table(isa);
}

const KernelTable& active() {
  // Thread-safe one-time selection (magic static); every BitArray
  // operation after the first call hits a resolved reference.
  static const KernelTable& table = select_active();
  return table;
}

const char* active_name() { return active().name; }

}  // namespace vlm::common::kernels
