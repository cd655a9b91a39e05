#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_map>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "dbt/exec.hpp"
#include "dbt/llsc_table.hpp"
#include "dbt/translation.hpp"
#include "mem/address_space.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/parallel.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

constexpr int kBatches = 15;

/// Best batch: host noise only ever adds time.
double best(const std::vector<double>& values) {
  return *std::min_element(values.begin(), values.end());
}

}  // namespace

double quantile(std::vector<std::uint64_t>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return static_cast<double>(values[std::max<std::size_t>(rank, 1) - 1]);
}

double probe_event_ns() {
  constexpr int kOps = 20000;
  dqemu::sim::EventQueue queue;
  std::uint64_t fired = 0;
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    const auto start = Clock::now();
    for (int i = 0; i < kOps; ++i) {
      queue.schedule_in(1000, [&fired] { ++fired; });
      queue.run_one();
    }
    per_op.push_back(ns_since(start) / kOps);
  }
  return fired == std::uint64_t{kBatches} * kOps ? best(per_op) : -1.0;
}

double probe_pool_batch_ns() {
  constexpr int kOps = 2000;
  dqemu::sim::ThreadPool pool(4);
  std::vector<std::uint64_t> slots(4 * 16);  // one cache line per task
  const std::function<void(std::size_t)> task = [&slots](std::size_t i) {
    ++slots[i * 16];
  };
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    const auto start = Clock::now();
    for (int i = 0; i < kOps; ++i) pool.run_tasks(4, task);
    per_op.push_back(ns_since(start) / kOps);
  }
  return best(per_op);
}

double probe_msg_ns() {
  constexpr int kOps = 5000;
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    dqemu::sim::EventQueue queue;
    dqemu::StatsRegistry stats;
    dqemu::net::Network network(queue, dqemu::NetworkConfig{}, 2, &stats);
    std::uint64_t delivered = 0;
    network.attach(0, [](dqemu::net::Message) {});
    network.attach(1, [&delivered](dqemu::net::Message) { ++delivered; });
    const auto start = Clock::now();
    for (int i = 0; i < kOps; ++i) {
      dqemu::net::Message msg;
      msg.src = 0;
      msg.dst = 1;
      msg.type = 0x100;
      msg.a = static_cast<std::uint64_t>(i);
      network.send(std::move(msg));
    }
    queue.run();
    per_op.push_back(ns_since(start) / kOps);
    if (delivered != kOps) return -1.0;
  }
  return best(per_op);
}

double probe_dbt_ns_per_insn(const dqemu::isa::Program& program) {
  constexpr int kRounds = 3;
  std::vector<double> per_insn;
  for (int round = 0; round < kRounds; ++round) {
    dqemu::mem::AddressSpace space(64u << 20, 4096);
    space.load_program(program);
    space.set_all_access(dqemu::mem::PageAccess::kReadWrite);
    const dqemu::DbtConfig config;
    dqemu::StatsRegistry stats;
    dqemu::dbt::LlscTable llsc;
    dqemu::dbt::TranslationCache cache(space, config,
                                       /*check_protection=*/false, &stats);
    dqemu::dbt::ExecEngine engine(space, nullptr, llsc, cache, config,
                                  /*check_protection=*/false, &stats);
    dqemu::dbt::CpuContext ctx;
    ctx.pc = program.entry;
    ctx.tid = 1;
    std::uint64_t insns = 0;
    const auto start = Clock::now();
    for (;;) {
      const dqemu::dbt::ExecResult r = engine.run(ctx, config.quantum_insns);
      insns += r.insns;
      if (r.reason == dqemu::dbt::StopReason::kSyscall) break;
      if (r.reason != dqemu::dbt::StopReason::kQuantum) return -1.0;
    }
    per_insn.push_back(ns_since(start) / static_cast<double>(insns));
  }
  return best(per_insn);
}

std::vector<std::uint64_t> flow_durations(
    const std::vector<dqemu::trace::Record>& records, std::string_view name) {
  std::unordered_map<std::uint64_t, dqemu::TimePs> open;
  std::vector<std::uint64_t> out;
  for (const dqemu::trace::Record& r : records) {
    if (r.name == nullptr || r.flow == 0 || name != r.name) continue;
    if (r.kind == dqemu::trace::Kind::kFlowBegin) {
      open[r.flow] = r.time;
    } else if (r.kind == dqemu::trace::Kind::kFlowEnd) {
      const auto it = open.find(r.flow);
      if (it == open.end()) continue;
      out.push_back(r.time - it->second);
      open.erase(it);
    }
  }
  return out;
}

}  // namespace perfbench
