#include "errnoinj/errno_model.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace kfi::errnoinj {

namespace {

struct SyscallEntry {
  const char* name;
  kernel::Syscall nr;
};

// The six fallible syscalls; yield/getpid cannot return an error in minux
// so forcing one would test a contract the kernel never exercises.
constexpr SyscallEntry kEligible[] = {
    {"read", kernel::Syscall::kRead},   {"write", kernel::Syscall::kWrite},
    {"alloc", kernel::Syscall::kAlloc}, {"free", kernel::Syscall::kFree},
    {"send", kernel::Syscall::kSend},   {"recv", kernel::Syscall::kRecv},
};

}  // namespace

u32 eligible_syscall_mask() {
  u32 mask = 0;
  for (const SyscallEntry& e : kEligible) {
    mask |= 1u << static_cast<u32>(e.nr);
  }
  return mask;
}

std::optional<u32> parse_syscall_list(const std::string& text,
                                      std::string* bad_token) {
  u32 mask = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t comma = text.find(',', pos);
    const std::string token =
        text.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? text.size() + 1 : comma + 1;
    if (token.empty()) {
      if (bad_token) *bad_token = "(empty)";
      return std::nullopt;
    }
    if (token == "all") {
      mask |= eligible_syscall_mask();
      continue;
    }
    bool found = false;
    for (const SyscallEntry& e : kEligible) {
      if (token == e.name) {
        mask |= 1u << static_cast<u32>(e.nr);
        found = true;
        break;
      }
    }
    if (!found) {
      if (bad_token) *bad_token = token;
      return std::nullopt;
    }
  }
  return mask;
}

std::string syscall_name(u32 nr) {
  for (const SyscallEntry& e : kEligible) {
    if (static_cast<u32>(e.nr) == nr) return e.name;
  }
  switch (static_cast<kernel::Syscall>(nr)) {
    case kernel::Syscall::kYield: return "yield";
    case kernel::Syscall::kGetpid: return "getpid";
    default: break;
  }
  return "sys" + std::to_string(nr);
}

std::string syscall_list_name(u32 mask) {
  if ((mask & eligible_syscall_mask()) == eligible_syscall_mask()) {
    return "all";
  }
  std::string s;
  for (const SyscallEntry& e : kEligible) {
    if ((mask & (1u << static_cast<u32>(e.nr))) == 0) continue;
    if (!s.empty()) s += ',';
    s += e.name;
  }
  return s.empty() ? "(none)" : s;
}

void ErrnoModel::validate() const {
  if (!enabled()) {
    // Disabled models still refuse leftover knobs so a half-built CLI
    // state cannot silently drop its trigger settings.
    if (rate != 0.0) {
      throw ErrnoModelError(
          "errno model: --errno-rate set without --errno-syscalls, got " +
          std::to_string(rate));
    }
    return;
  }
  const u32 stray = syscalls & ~eligible_syscall_mask();
  if (stray != 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%x", stray);
    throw ErrnoModelError(
        std::string("errno model: syscall mask has ineligible bits ") + buf +
        " (eligible: read,write,alloc,free,send,recv)");
  }
  if (trigger == ErrnoTrigger::kNth) {
    if (rate != 0.0) {
      throw ErrnoModelError(
          "errno model: --errno-rate set on the nth trigger, got " +
          std::to_string(rate));
    }
  } else {
    if (!std::isfinite(rate) || rate <= 0.0) {
      throw ErrnoModelError(
          "errno model: --errno-rate must be a positive event count per "
          "run, got " +
          std::to_string(rate));
    }
    if (rate > 1024.0) {
      throw ErrnoModelError(
          "errno model: --errno-rate above 1024 events/run, got " +
          std::to_string(rate));
    }
    if (nth != kNthDraw) {
      throw ErrnoModelError(
          "errno model: --errno-nth set on the rate trigger, got " +
          std::to_string(nth));
    }
  }
}

std::string ErrnoModel::name() const {
  std::string s = "errno ";
  if (trigger == ErrnoTrigger::kNth) {
    s += nth == kNthDraw ? "nth" : ("nth=" + std::to_string(nth));
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "rate=%.3g/run", rate);
    s += buf;
  }
  if (value == ErrnoValue::kDrawnNegative) s += " drawn";
  // Appending piecewise sidesteps a GCC 12 -Wrestrict false positive.
  s += "[";
  s += syscall_list_name(syscalls);
  s += "]";
  return s;
}

u64 errno_model_fingerprint(const ErrnoModel& model) {
  u64 h = 0xcbf29ce484222325ull;
  auto mix = [&h](u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  mix(model.syscalls);
  mix(static_cast<u64>(model.value));
  mix(static_cast<u64>(model.trigger));
  mix(model.nth);
  u64 rate_bits = 0;
  std::memcpy(&rate_bits, &model.rate, sizeof(rate_bits));
  mix(rate_bits);
  return h;
}

}  // namespace kfi::errnoinj
