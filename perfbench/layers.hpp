// Per-layer measurements taken from outside the simulator: timed probes of
// single layers' public entry points, and latency distributions read back
// from the flight recorder's causal flows.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "isa/program.hpp"
#include "trace/record.hpp"

namespace perfbench {

/// Host ns per sim::EventQueue schedule_in + run_one (best of batches).
[[nodiscard]] double probe_event_ns();

/// Host ns per sim::ThreadPool::run_tasks batch of 4 trivial tasks on a
/// 4-thread pool (best of batches).
[[nodiscard]] double probe_pool_batch_ns();

/// Host ns per net::Network message from send to delivery on a two-node
/// network (best of batches).
[[nodiscard]] double probe_msg_ns();

/// Host ns per guest instruction of dbt::ExecEngine::run on `program`
/// (run from its entry to its first syscall; best of rounds).
[[nodiscard]] double probe_dbt_ns_per_insn(const dqemu::isa::Program& program);

/// Virtual durations (ps) of every complete flow named `name`: flow-begin
/// to flow-end of the same flow id. Flows missing either end are skipped.
[[nodiscard]] std::vector<std::uint64_t> flow_durations(
    const std::vector<dqemu::trace::Record>& records, std::string_view name);

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
[[nodiscard]] double quantile(std::vector<std::uint64_t>& values, double q);

}  // namespace perfbench
