// Target generator tests: pre-generated targets must respect the paper's
// selection rules (profiled hot functions for code, structural data words,
// instruction boundaries, system-register bank bounds) and be
// deterministic per seed.
#include <gtest/gtest.h>

#include <set>

#include "cisca/decode.hpp"
#include "common/counter_map.hpp"
#include "riscf/insn.hpp"
#include "kir/backend.hpp"
#include "inject/target_gen.hpp"
#include "kernel/machine.hpp"
#include "workload/profiler.hpp"
#include "workload/workload.hpp"

namespace kfi::inject {
namespace {

class TargetGenTest : public ::testing::TestWithParam<isa::Arch> {
 protected:
  TargetGenTest() : machine_(GetParam(), kernel::MachineOptions{}) {
    auto wl = workload::make_suite();
    hot_ = workload::profile_hot_functions(machine_, *wl, 0.95, 1);
  }

  TargetGenerator make_gen(u64 seed = 9) {
    return TargetGenerator(machine_.image(), hot_,
                           machine_.cpu().sysregs().count(), seed);
  }

  kernel::Machine machine_;
  std::vector<workload::HotFunction> hot_;
};

TEST_P(TargetGenTest, CodeTargetsLieInsideHotFunctions) {
  auto gen = make_gen();
  for (const auto& t : gen.generate(CampaignKind::kCode, 200)) {
    const auto* fn = machine_.image().function_at(t.site().addr);
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn->name, t.function);
    bool is_hot = false;
    for (const auto& h : hot_) is_hot |= h.name == t.function;
    EXPECT_TRUE(is_hot) << t.function;
    EXPECT_LT(t.site().bit, t.site().insn_len * 8);
  }
}

TEST_P(TargetGenTest, CodeTargetsStartOnInstructionBoundaries) {
  auto gen = make_gen();
  for (const auto& t : gen.generate(CampaignKind::kCode, 100)) {
    if (GetParam() == isa::Arch::kRiscf) {
      EXPECT_EQ(t.site().addr % 4, 0u);
      EXPECT_EQ(t.site().insn_len, 4u);
      continue;
    }
    // cisca: walk the decode chain from the function start; the target
    // must be a boundary.
    const auto* fn = machine_.image().function_at(t.site().addr);
    ASSERT_NE(fn, nullptr);
    Addr pc = fn->addr;
    bool boundary = false;
    while (pc < fn->addr + fn->size) {
      if (pc == t.site().addr) {
        boundary = true;
        break;
      }
      cisca::FetchWindow w;
      w.pc = pc;
      const u32 off = pc - machine_.image().code_base;
      for (u32 k = 0;
           k < cisca::kMaxInsnBytes && off + k < machine_.image().code.size();
           ++k) {
        w.bytes[k] = machine_.image().code[off + k];
        w.valid = static_cast<u8>(k + 1);
      }
      pc += cisca::decode(w).insn.length;
    }
    EXPECT_TRUE(boundary) << std::hex << t.site().addr;
  }
}

TEST_P(TargetGenTest, CodeTargetsAreUsageWeighted) {
  // The hottest function must receive noticeably more targets than a cold
  // one, mirroring the profiling-driven selection.
  auto gen = make_gen();
  CounterMap by_fn;
  for (const auto& t : gen.generate(CampaignKind::kCode, 2000)) {
    by_fn.add(t.function);
  }
  EXPECT_GT(by_fn.fraction(hot_.front().name), 0.15);
}

TEST_P(TargetGenTest, DataTargetsStayInTheFixedWindow) {
  // Uniform sampling over the fixed data window: never a bulk payload
  // array (those live beyond the window); slack hits are allowed (they
  // model never-used data and simply fail to activate).
  auto gen = make_gen();
  for (const auto& t : gen.generate(CampaignKind::kData, 500)) {
    EXPECT_GE(t.site().addr, machine_.image().data_base);
    EXPECT_LT(t.site().addr,
              machine_.image().data_base + kir::kBulkDataOffset);
    const auto* obj = machine_.image().object_at(t.site().addr);
    if (obj != nullptr) {
      EXPECT_TRUE(obj->structural) << obj->name;
    }
    EXPECT_EQ(t.site().addr % 4, 0u);
    EXPECT_LT(t.site().bit, 32u);
  }
}

TEST_P(TargetGenTest, DataTargetsCoverManyObjects) {
  auto gen = make_gen();
  std::set<std::string> names;
  for (const auto& t : gen.generate(CampaignKind::kData, 2000)) {
    const auto* obj = machine_.image().object_at(t.site().addr);
    if (obj != nullptr) names.insert(obj->name);
  }
  EXPECT_GT(names.size(), 10u);
}

TEST_P(TargetGenTest, StackTargetsSpanTasksAndDepths) {
  auto gen = make_gen();
  std::set<u32> tasks;
  double min_frac = 1.0, max_frac = 0.0;
  for (const auto& t : gen.generate(CampaignKind::kStack, 300)) {
    tasks.insert(t.site().task);
    min_frac = std::min(min_frac, t.site().depth_frac);
    max_frac = std::max(max_frac, t.site().depth_frac);
    EXPECT_LT(t.site().bit, 32u);
    EXPECT_GE(t.inject_at_frac, 0.1);
    EXPECT_LE(t.inject_at_frac, 0.8);
  }
  EXPECT_EQ(tasks.size(), kernel::kNumTasks);
  EXPECT_LT(min_frac, 0.1);
  EXPECT_GT(max_frac, 0.9);
}

TEST_P(TargetGenTest, RegisterTargetsStayInBank) {
  auto gen = make_gen();
  const u32 count = machine_.cpu().sysregs().count();
  std::set<u32> indices;
  for (const auto& t : gen.generate(CampaignKind::kRegister, 400)) {
    EXPECT_LT(t.site().reg_index, count);
    indices.insert(t.site().reg_index);
  }
  // A 400-target campaign touches a large share of the bank.
  EXPECT_GT(indices.size(), count / 2);
}

TEST_P(TargetGenTest, DeterministicPerSeed) {
  auto a = make_gen(123).generate(CampaignKind::kCode, 50);
  auto b = make_gen(123).generate(CampaignKind::kCode, 50);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].site().addr, b[i].site().addr);
    EXPECT_EQ(a[i].site().bit, b[i].site().bit);
  }
  auto c = make_gen(124).generate(CampaignKind::kCode, 50);
  bool all_same = true;
  for (size_t i = 0; i < a.size(); ++i) {
    all_same &= a[i].site().addr == c[i].site().addr &&
                a[i].site().bit == c[i].site().bit;
  }
  EXPECT_FALSE(all_same);
}

TEST_P(TargetGenTest, LegacyModelDrawsOneSitePerTarget) {
  auto gen = make_gen();
  for (const CampaignKind kind :
       {CampaignKind::kStack, CampaignKind::kRegister, CampaignKind::kData,
        CampaignKind::kCode}) {
    for (const auto& t : gen.generate(kind, 50)) {
      EXPECT_EQ(t.sites.size(), 1u);
    }
  }
}

TEST_P(TargetGenTest, MultiBitExpandsToDistinctBitsOfOneUnit) {
  auto gen = make_gen();
  FaultModel m;
  m.shape = FaultShape::kMultiBit;
  m.bits = 4;
  for (const auto& t : gen.generate(CampaignKind::kData, 200, m)) {
    ASSERT_EQ(t.sites.size(), 4u);
    std::set<u32> bits;
    for (const auto& s : t.sites) {
      EXPECT_EQ(s.addr, t.sites[0].addr);  // all bits hit the same word
      EXPECT_LT(s.bit, 32u);
      bits.insert(s.bit);
    }
    EXPECT_EQ(bits.size(), 4u);  // and are pairwise distinct
  }
}

TEST_P(TargetGenTest, MultiBitOnCodeStaysInsideTheInstruction) {
  auto gen = make_gen();
  FaultModel m;
  m.shape = FaultShape::kMultiBit;
  m.bits = 3;
  for (const auto& t : gen.generate(CampaignKind::kCode, 100, m)) {
    ASSERT_EQ(t.sites.size(), 3u);
    for (const auto& s : t.sites) {
      EXPECT_EQ(s.addr, t.sites[0].addr);
      EXPECT_EQ(s.insn_len, t.sites[0].insn_len);
      EXPECT_LT(s.bit, s.insn_len * 8);
    }
  }
}

TEST_P(TargetGenTest, BurstExpandsToAdjacentBits) {
  auto gen = make_gen();
  FaultModel m;
  m.shape = FaultShape::kBurst;
  m.burst_span = 4;
  for (const auto& t : gen.generate(CampaignKind::kData, 200, m)) {
    ASSERT_EQ(t.sites.size(), 4u);
    std::set<u32> bits;
    for (const auto& s : t.sites) {
      EXPECT_EQ(s.addr, t.sites[0].addr);
      EXPECT_LT(s.bit, 32u);
      bits.insert(s.bit);
    }
    ASSERT_EQ(bits.size(), 4u);
    EXPECT_EQ(*bits.rbegin() - *bits.begin(), 3u);  // contiguous span
  }
}

TEST_P(TargetGenTest, OpclassTargetingDrawsOnlyThatClass) {
  auto gen = make_gen();
  FaultModel m;
  m.shape = FaultShape::kOpclass;
  m.opclass = isa::OpClass::kLoadStore;
  for (const auto& t : gen.generate(CampaignKind::kCode, 150, m)) {
    EXPECT_EQ(t.opclass, isa::OpClass::kLoadStore);
    // Cross-check the stamp against an independent decode of the image.
    if (GetParam() == isa::Arch::kRiscf) {
      const u32 off = t.site().addr - machine_.image().code_base;
      const u32 word = (machine_.image().code[off] << 24) |
                       (machine_.image().code[off + 1] << 16) |
                       (machine_.image().code[off + 2] << 8) |
                       machine_.image().code[off + 3];
      EXPECT_EQ(riscf::opclass(riscf::decode(word).op),
                isa::OpClass::kLoadStore);
    } else {
      cisca::FetchWindow w;
      w.pc = t.site().addr;
      const u32 off = t.site().addr - machine_.image().code_base;
      for (u32 k = 0;
           k < cisca::kMaxInsnBytes && off + k < machine_.image().code.size();
           ++k) {
        w.bytes[k] = machine_.image().code[off + k];
        w.valid = static_cast<u8>(k + 1);
      }
      EXPECT_EQ(cisca::opclass(cisca::decode(w).insn.op),
                isa::OpClass::kLoadStore);
    }
  }
}

TEST_P(TargetGenTest, RateTriggerPreDrawsASortedSchedule) {
  auto gen = make_gen();
  FaultModel m;
  m.trigger = FaultTrigger::kRate;
  m.rate = 3.0;
  bool any_multi = false;
  for (const auto& t : gen.generate(CampaignKind::kData, 200, m)) {
    any_multi |= t.sites.size() > 1;
    for (size_t i = 0; i < t.sites.size(); ++i) {
      EXPECT_GE(t.sites[i].at_frac, 0.0);
      EXPECT_LT(t.sites[i].at_frac, 1.0);
      if (i > 0) {
        EXPECT_GE(t.sites[i].at_frac, t.sites[i - 1].at_frac);
      }
    }
  }
  // With lambda=3 per run, multi-event schedules are near-certain.
  EXPECT_TRUE(any_multi);
}

TEST_P(TargetGenTest, ShapedDrawsAreDeterministicPerSeed) {
  FaultModel m;
  m.shape = FaultShape::kMultiBit;
  m.bits = 4;
  m.trigger = FaultTrigger::kRate;
  m.rate = 2.0;
  auto a = make_gen(321).generate(CampaignKind::kData, 50, m);
  auto b = make_gen(321).generate(CampaignKind::kData, 50, m);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].sites.size(), b[i].sites.size());
    for (size_t j = 0; j < a[i].sites.size(); ++j) {
      EXPECT_EQ(a[i].sites[j].addr, b[i].sites[j].addr);
      EXPECT_EQ(a[i].sites[j].bit, b[i].sites[j].bit);
      EXPECT_EQ(a[i].sites[j].at_frac, b[i].sites[j].at_frac);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothArchs, TargetGenTest,
                         ::testing::Values(isa::Arch::kCisca,
                                           isa::Arch::kRiscf),
                         [](const auto& info) {
                           return info.param == isa::Arch::kCisca ? "cisca"
                                                                  : "riscf";
                         });

}  // namespace
}  // namespace kfi::inject
