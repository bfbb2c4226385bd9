// Fault machinery: site enumeration, plan sampling, outcome classification,
// campaign determinism and accounting.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/app.h"
#include "fault/campaign.h"
#include "fault/outcome.h"
#include "fault/sampling.h"
#include "fault/sites.h"
#include "hl/builder.h"
#include "oracles.h"
#include "util/bits.h"
#include "util/stats.h"
#include "vm/interp.h"

namespace ft {
namespace {

// Program: region computes sum of 8 array elements; output = sum, verified
// with a loose tolerance so low-mantissa flips pass and exponent flips fail.
struct CampaignHarness {
  ir::Module mod{"t"};
  std::uint32_t rid = 0;
  std::vector<vm::OutputValue> golden;
  fault::Verifier verifier;

  static CampaignHarness make() {
    CampaignHarness h;
    hl::ProgramBuilder pb("t");
    auto arr = pb.global_init_f64(
        "arr", {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0});
    const auto rid = pb.declare_region("sum", 0, 0);
    const auto fid = pb.declare_function("main");
    {
      auto f = pb.define(fid);
      auto s = f.var_f64("s", 0.0);
      f.region(rid, [&] {
        f.for_("i", 0, 8, [&](hl::Value i) {
          s.set(s.get() + f.ld(arr, i));
        });
      });
      f.emit(s.get());
      f.ret();
    }
    h.rid = rid;
    h.mod = pb.finish();
    const auto run = vm::Vm::run(h.mod);
    EXPECT_TRUE(run.completed());
    h.golden = run.outputs;
    h.verifier = fault::tolerance_verifier(1e-3);
    return h;
  }
};

TEST(Sites, EnumerationFindsInternalAndInputSites) {
  const auto h = CampaignHarness::make();
  const auto sites = fault::enumerate_sites(h.mod, h.rid, 0, {});
  ASSERT_TRUE(sites.region_found);
  EXPECT_GT(sites.sites.internal.size(), 8u);
  // Inputs include the 8 array cells (plus the accumulator slot).
  EXPECT_GE(sites.sites.input.size(), 8u);
  EXPECT_GT(sites.sites.internal_bits(), 0u);
  EXPECT_EQ(sites.sites.input_bits() % 8, 0u);
  EXPECT_GT(sites.fault_free_instructions, 0u);
}

TEST(Sites, MissingRegionInstanceIsReported) {
  const auto h = CampaignHarness::make();
  const auto sites = fault::enumerate_sites(h.mod, h.rid, 99, {});
  EXPECT_FALSE(sites.region_found);
  EXPECT_TRUE(sites.sites.internal.empty());
}

TEST(Sites, WholeProgramEnumeration) {
  const auto h = CampaignHarness::make();
  const auto sites = fault::enumerate_whole_program_sites(h.mod, {});
  ASSERT_TRUE(sites.region_found);
  const auto region_sites = fault::enumerate_sites(h.mod, h.rid, 0, {});
  EXPECT_GT(sites.sites.internal.size(),
            region_sites.sites.internal.size());
}

TEST(Plans, SamplingIsDeterministicAndInRange) {
  const auto h = CampaignHarness::make();
  const auto sites = fault::enumerate_sites(h.mod, h.rid, 0, {});
  const auto a = fault::sample_plans(sites, fault::TargetClass::Internal, 64,
                                     123);
  const auto b = fault::sample_plans(sites, fault::TargetClass::Internal, 64,
                                     123);
  const auto c = fault::sample_plans(sites, fault::TargetClass::Internal, 64,
                                     456);
  ASSERT_EQ(a.size(), 64u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dyn_index, b[i].dyn_index);
    EXPECT_EQ(a[i].bit, b[i].bit);
    EXPECT_EQ(a[i].kind, vm::FaultPlan::Kind::ResultBit);
    EXPECT_LT(a[i].bit, 64u);
  }
  bool any_differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].dyn_index != c[i].dyn_index || a[i].bit != c[i].bit) {
      any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs);
}

TEST(Plans, InputPlansTargetRegionEntry) {
  const auto h = CampaignHarness::make();
  const auto sites = fault::enumerate_sites(h.mod, h.rid, 0, {});
  const auto plans =
      fault::sample_plans(sites, fault::TargetClass::Input, 32, 9);
  ASSERT_EQ(plans.size(), 32u);
  for (const auto& p : plans) {
    EXPECT_EQ(p.kind, vm::FaultPlan::Kind::RegionInputMemoryBit);
    EXPECT_EQ(p.region_id, h.rid);
    EXPECT_EQ(p.region_instance, 0u);
  }
}

void expect_same_plans(const std::vector<vm::FaultPlan>& want,
                       const std::vector<vm::FaultPlan>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].kind, got[i].kind) << "plan " << i;
    EXPECT_EQ(want[i].dyn_index, got[i].dyn_index) << "plan " << i;
    EXPECT_EQ(want[i].region_id, got[i].region_id) << "plan " << i;
    EXPECT_EQ(want[i].region_instance, got[i].region_instance) << "plan " << i;
    EXPECT_EQ(want[i].address, got[i].address) << "plan " << i;
    EXPECT_EQ(want[i].width_bytes, got[i].width_bytes) << "plan " << i;
    EXPECT_EQ(want[i].bit, got[i].bit) << "plan " << i;
  }
}

// The one-sweep batched pick resolves every offset exactly as a linear scan
// per offset does, in the offsets' order: random populations with
// zero-width sites, duplicate and boundary offsets, and offsets past the
// end.
TEST(Plans, BatchedPickMatchesLinearPick) {
  util::Rng rng(2024);
  for (int round = 0; round < 200; ++round) {
    std::vector<fault::InternalSite> sites(rng.below(40));
    std::uint64_t total = 0;
    for (auto& s : sites) {
      s.width_bits = static_cast<std::uint32_t>(rng.below(4) == 0
                                                    ? 0
                                                    : 1 + rng.below(64));
      total += s.width_bits;
    }
    std::vector<std::uint64_t> offsets(rng.below(50));
    for (auto& u : offsets) {
      switch (rng.below(4)) {
        case 0: u = total + rng.below(3); break;  // past the end
        case 1: u = offsets.front(); break;       // a duplicate
        default: u = total == 0 ? 0 : rng.below(total); break;
      }
    }
    const auto width = [](const fault::InternalSite& s) {
      return std::uint64_t{s.width_bits};
    };
    const auto got = fault::detail::pick_weighted(sites, offsets, width);
    ASSERT_EQ(got.size(), offsets.size());
    for (std::size_t i = 0; i < offsets.size(); ++i) {
      const auto want = oracle::linear_pick(sites, offsets[i], width);
      EXPECT_EQ(want.first, got[i].first) << "round " << round << " " << i;
      EXPECT_EQ(want.second, got[i].second) << "round " << round << " " << i;
    }
  }
}

// sample_plans is bit-identical, plan for plan, to the per-trial linear pick
// on every application's whole-program population and on the input
// population of its first analysis region.
TEST(Plans, SamplingMatchesLinearPickOnAllApps) {
  for (const auto& name : apps::all_app_names()) {
    SCOPED_TRACE(name);
    const auto app = apps::build_app(name);
    const auto whole = fault::enumerate_whole_program_sites(app.module,
                                                            app.base);
    ASSERT_FALSE(whole.sites.internal.empty());
    for (const std::uint64_t seed : {1ull, 7919ull}) {
      expect_same_plans(
          oracle::linear_sample_plans(whole, fault::TargetClass::Internal,
                                      97, seed),
          fault::sample_plans(whole, fault::TargetClass::Internal, 97, seed));
    }
    if (app.analysis_regions.empty()) continue;
    const auto region = fault::enumerate_sites(
        app.module, app.analysis_regions.front().id, 0, app.base);
    expect_same_plans(
        oracle::linear_sample_plans(region, fault::TargetClass::Input, 97, 5),
        fault::sample_plans(region, fault::TargetClass::Input, 97, 5));
  }
}

TEST(Outcome, Classification) {
  const auto h = CampaignHarness::make();
  // Identical outputs -> success.
  vm::RunResult ok;
  ok.outputs = h.golden;
  EXPECT_EQ(fault::classify_outcome(ok, h.golden, h.verifier),
            fault::Outcome::VerificationSuccess);
  // Small perturbation within tolerance -> success.
  vm::RunResult close = ok;
  close.outputs[0].bits = util::f64_to_bits(h.golden[0].as_f64() * (1 + 1e-6));
  EXPECT_EQ(fault::classify_outcome(close, h.golden, h.verifier),
            fault::Outcome::VerificationSuccess);
  // Large perturbation -> failed.
  vm::RunResult far = ok;
  far.outputs[0].bits = util::f64_to_bits(h.golden[0].as_f64() * 2);
  EXPECT_EQ(fault::classify_outcome(far, h.golden, h.verifier),
            fault::Outcome::VerificationFailed);
  // Trap -> crashed.
  vm::RunResult crash;
  crash.trap = vm::TrapKind::OutOfBounds;
  EXPECT_EQ(fault::classify_outcome(crash, h.golden, h.verifier),
            fault::Outcome::Crashed);
}

TEST(ToleranceVerifier, ChecksShapeAndTypes) {
  const auto v = fault::tolerance_verifier(1e-6);
  std::vector<vm::OutputValue> a = {{42, ir::Type::I64}};
  std::vector<vm::OutputValue> b = {{42, ir::Type::I64}, {1, ir::Type::I64}};
  EXPECT_FALSE(v(a, b));  // arity mismatch
  std::vector<vm::OutputValue> c = {{43, ir::Type::I64}};
  EXPECT_FALSE(v(c, a));  // integer must be exact
  EXPECT_TRUE(v(a, a));
  // NaN output never verifies.
  std::vector<vm::OutputValue> n = {
      {util::f64_to_bits(std::nan("")), ir::Type::F64}};
  std::vector<vm::OutputValue> g = {{util::f64_to_bits(1.0), ir::Type::F64}};
  EXPECT_FALSE(v(n, g));
}

TEST(Campaign, AccountingAndDeterminism) {
  const auto h = CampaignHarness::make();
  const auto sites = fault::enumerate_sites(h.mod, h.rid, 0, {});
  fault::CampaignConfig cfg;
  cfg.trials = 100;
  cfg.seed = 2024;
  const auto r1 = fault::run_campaign(h.mod, sites,
                                      fault::TargetClass::Internal, h.golden,
                                      h.verifier, {}, cfg);
  const auto r2 = fault::run_campaign(h.mod, sites,
                                      fault::TargetClass::Internal, h.golden,
                                      h.verifier, {}, cfg);
  EXPECT_EQ(r1.trials, 100u);
  EXPECT_EQ(r1.success + r1.failed + r1.crashed, r1.trials);
  EXPECT_EQ(r1.success, r2.success);
  EXPECT_EQ(r1.failed, r2.failed);
  EXPECT_EQ(r1.crashed, r2.crashed);
  // A sum-of-doubles region tolerates many low-mantissa flips but not all.
  EXPECT_GT(r1.success_rate(), 0.2);
  EXPECT_LT(r1.success_rate(), 1.0);
}

TEST(Campaign, LeveugleDefaultTrialCount) {
  const auto h = CampaignHarness::make();
  const auto sites = fault::enumerate_sites(h.mod, h.rid, 0, {});
  fault::CampaignConfig cfg;  // trials = 0 -> derive
  cfg.confidence = 0.95;
  cfg.margin = 0.03;
  const auto r = fault::run_campaign(h.mod, sites,
                                     fault::TargetClass::Internal, h.golden,
                                     h.verifier, {}, cfg);
  const auto expected = util::fault_injection_sample_size(
      sites.sites.internal_bits(), 0.95, 0.03);
  EXPECT_EQ(r.trials, expected);
}

TEST(Campaign, InputCampaignRuns) {
  const auto h = CampaignHarness::make();
  const auto sites = fault::enumerate_sites(h.mod, h.rid, 0, {});
  fault::CampaignConfig cfg;
  cfg.trials = 50;
  const auto r = fault::run_campaign(h.mod, sites, fault::TargetClass::Input,
                                     h.golden, h.verifier, {}, cfg);
  EXPECT_EQ(r.trials, 50u);
  EXPECT_EQ(r.success + r.failed + r.crashed, r.trials);
}

TEST(Campaign, EmptyPopulationIsSafe) {
  const auto h = CampaignHarness::make();
  fault::SiteEnumerationResult empty;
  fault::CampaignConfig cfg;
  cfg.trials = 10;
  const auto r = fault::run_campaign(h.mod, empty,
                                     fault::TargetClass::Internal, h.golden,
                                     h.verifier, {}, cfg);
  EXPECT_EQ(r.trials, 0u);
}

}  // namespace
}  // namespace ft
