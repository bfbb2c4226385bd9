// Seeded generator of random well-typed MiniIR programs (loops, branches,
// geps, calls, reductions over hl::ProgramBuilder), shared by the
// differential engine fuzzer and the golden-pass equivalence tests.
//
// Every generated program terminates by construction (loop trip counts are
// bounded constants) and is well-typed by construction (expressions are
// drawn from per-type pools; array indices are nonnegative-mod-size).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hl/builder.h"
#include "util/rng.h"

namespace ft::fuzz {

class ProgramGen {
 public:
  explicit ProgramGen(std::uint64_t seed)
      : rng_(seed), pb_("fuzz", __FILE__) {}

  ir::Module generate() {
    // Global arrays: a few f64 (one initialized from the seed stream) and
    // one i64 scratch array.
    const int n_arrays = 2 + static_cast<int>(rng_.below(2));
    for (int a = 0; a < n_arrays; ++a) {
      const auto size = static_cast<std::int64_t>(4 + rng_.below(12));
      if (a == 0) {
        std::vector<double> init(static_cast<std::size_t>(size));
        for (auto& v : init) v = rng_.uniform() * 8.0 - 4.0;
        arrays_.push_back(pb_.global_init_f64("g" + std::to_string(a), init));
      } else {
        arrays_.push_back(
            pb_.global_f64("g" + std::to_string(a), static_cast<std::uint64_t>(size)));
      }
      array_size_.push_back(size);
    }
    iarray_ = pb_.global_i64("gi", 8);

    // Optionally a helper function (f64 x, i64 i) -> f64, exercising Call
    // frames, Arg operands and cross-frame Ret commits.
    const bool with_helper = rng_.below(100) < 70;
    std::uint32_t helper = 0;
    if (with_helper) {
      helper = pb_.declare_function(
          "helper", ir::Type::F64,
          {ir::Param{ir::Type::F64, "x"}, ir::Param{ir::Type::I64, "i"}});
    }
    const auto f_main = pb_.declare_function("main");

    if (with_helper) {
      auto f = pb_.define(helper);
      f.at(__LINE__);
      auto x = f.arg(0);
      auto idx = f.arg(1) % array_size_[0];
      auto v = f.ld(arrays_[0], idx);
      auto y = x * 0.5 + v;
      // A branchy tail so helper activations shape control flow too.
      auto out = f.var_f64("out", 0.0);
      f.if_else(
          y.gt(0.0), [&] { out.set(y + 1.0); },
          [&] { out.set(y * -0.25); });
      f.ret(out.get());
      helper_ = helper;
      has_helper_ = true;
    }

    // The whole main body is one declared region so the hardening pass has
    // a protection target on every seed (tests/harden_test.cpp pins the
    // pass itself; the fuzz harness pins its clean-run transparency).
    const auto body_region = pb_.declare_region("body", 0, 0);
    {
      auto f = pb_.define(f_main);
      f.at(__LINE__);
      acc_ = f.var_f64("acc", 0.25);
      iacc_ = f.var_i64("iacc", 3);
      budget_ = 28 + static_cast<int>(rng_.below(40));
      f.region(body_region, [&] {
        block(f, /*depth=*/0, /*loop_vars=*/{});
        // Checksum reduction over every array so all stored state reaches
        // the outputs (a silent divergence cannot hide).
        for (std::size_t a = 0; a < arrays_.size(); ++a) {
          f.for_("ck" + std::to_string(a), 0, array_size_[a],
                 [&](hl::Value j) { acc_.set(acc_.get() + f.ld(arrays_[a], j)); });
        }
        f.for_("cki", 0, 8,
               [&](hl::Value j) { iacc_.set(iacc_.get() + f.ld(iarray_, j)); });
      });
      f.emit(acc_.get());
      f.emit(iacc_.get());
      f.ret();
    }
    return pb_.finish();
  }

 private:
  // A nonnegative i64 expression from loop variables and the integer
  // accumulator; used (mod size) as a safe array index.
  hl::Value int_expr(hl::FunctionBuilder& f,
                     const std::vector<hl::Value>& loop_vars) {
    hl::Value v = loop_vars.empty()
                      ? f.c_i64(static_cast<std::int64_t>(rng_.below(8)))
                      : loop_vars[rng_.below(loop_vars.size())];
    switch (rng_.below(4)) {
      case 0: return v + static_cast<std::int64_t>(rng_.below(5));
      case 1: return v * static_cast<std::int64_t>(1 + rng_.below(3));
      case 2:
        if (!loop_vars.empty()) {
          return v + loop_vars[rng_.below(loop_vars.size())];
        }
        return v;
      default: return v;
    }
  }

  hl::Value index_for(hl::FunctionBuilder& f, std::size_t array,
                      const std::vector<hl::Value>& loop_vars) {
    // Nonnegative dividend: SRem keeps the result in [0, size).
    return int_expr(f, loop_vars) % array_size_[array];
  }

  hl::Value float_expr(hl::FunctionBuilder& f,
                       const std::vector<hl::Value>& loop_vars, int depth) {
    switch (depth > 2 ? rng_.below(4) : rng_.below(9)) {
      case 0: return f.c_f64(rng_.uniform() * 4.0 - 2.0);
      case 1: return acc_.get();
      case 2: {
        const auto a = rng_.below(arrays_.size());
        return f.ld(arrays_[a], index_for(f, a, loop_vars));
      }
      case 3: return f.sitofp(int_expr(f, loop_vars));
      case 4:
        return float_expr(f, loop_vars, depth + 1) +
               float_expr(f, loop_vars, depth + 1);
      case 5:
        return float_expr(f, loop_vars, depth + 1) *
               float_expr(f, loop_vars, depth + 1);
      case 6: {
        auto c = float_expr(f, loop_vars, depth + 1)
                     .gt(float_expr(f, loop_vars, depth + 1));
        return f.select(c, float_expr(f, loop_vars, depth + 1),
                        float_expr(f, loop_vars, depth + 1));
      }
      case 7: return f.fsqrt(f.fabs_(float_expr(f, loop_vars, depth + 1)));
      default: {
        // Gep + raw load: pointer arithmetic over an array base.
        const auto a = rng_.below(arrays_.size());
        auto ptr = f.gep(f.addr_of(arrays_[a]), index_for(f, a, loop_vars),
                         8);
        return f.ld_raw(ptr, ir::Type::F64);
      }
    }
  }

  void statement(hl::FunctionBuilder& f,
                 const std::vector<hl::Value>& loop_vars, int depth) {
    budget_--;
    switch (rng_.below(8)) {
      case 0: {  // array store
        const auto a = rng_.below(arrays_.size());
        f.st(arrays_[a], index_for(f, a, loop_vars),
             float_expr(f, loop_vars, 0));
        break;
      }
      case 1:  // float reduction step
        acc_.set(acc_.get() + float_expr(f, loop_vars, 0));
        break;
      case 2: {  // integer scratch store + reduction
        auto idx = int_expr(f, loop_vars) % std::int64_t{8};
        f.st(iarray_, idx, int_expr(f, loop_vars));
        iacc_.set(iacc_.get() ^ int_expr(f, loop_vars));
        break;
      }
      case 3: {  // branch
        auto c = float_expr(f, loop_vars, 1).lt(float_expr(f, loop_vars, 1));
        if (rng_.below(2) == 0) {
          f.if_(c, [&] { block(f, depth + 1, loop_vars); });
        } else {
          f.if_else(
              c, [&] { block(f, depth + 1, loop_vars); },
              [&] { block(f, depth + 1, loop_vars); });
        }
        break;
      }
      case 4: {  // bounded counted loop
        if (depth >= 3) {
          acc_.set(acc_.get() * 0.5);
          break;
        }
        const auto trip = static_cast<std::int64_t>(1 + rng_.below(5));
        f.for_("i" + std::to_string(depth) + "_" +
                   std::to_string(budget_ < 0 ? 0 : budget_),
               0, trip, [&](hl::Value i) {
                 auto inner = loop_vars;
                 inner.push_back(i);
                 block(f, depth + 1, inner);
               });
        break;
      }
      case 5:  // helper call feeding the reduction
        if (has_helper_) {
          auto r = f.call(helper_,
                          {float_expr(f, loop_vars, 1),
                           int_expr(f, loop_vars)});
          acc_.set(acc_.get() + r);
        } else {
          acc_.set(acc_.get() - 0.125);
        }
        break;
      case 6: {  // raw gep store
        const auto a = rng_.below(arrays_.size());
        auto ptr =
            f.gep(f.addr_of(arrays_[a]), index_for(f, a, loop_vars), 8);
        f.st_raw(ptr, float_expr(f, loop_vars, 0));
        break;
      }
      default:  // randlc draw (exercises the RNG state in snapshots)
        acc_.set(acc_.get() + f.rand_() * 0.01);
        break;
    }
  }

  void block(hl::FunctionBuilder& f, int depth,
             const std::vector<hl::Value>& loop_vars) {
    const int stmts = 1 + static_cast<int>(rng_.below(depth == 0 ? 5 : 3));
    for (int s = 0; s < stmts && budget_ > 0; ++s) {
      statement(f, loop_vars, depth);
    }
  }

  util::Rng rng_;
  hl::ProgramBuilder pb_;
  std::vector<hl::GlobalArray> arrays_;
  std::vector<std::int64_t> array_size_;
  hl::GlobalArray iarray_;
  hl::Var acc_;
  hl::Var iacc_;
  std::uint32_t helper_ = 0;
  bool has_helper_ = false;
  int budget_ = 0;
};

}  // namespace ft::fuzz
