// Guest programs of the benchmark's workloads and the results they must
// produce.
//
// Each generator has an `*_expected` twin that returns the stdout the guest
// must print, computed in C++ with the same 32-bit integer arithmetic the
// guest performs (kept apart so that set-up time measures only the
// generator). The printed checksums fold in every value the guest
// computed, so a result is only accepted when all of the work was done and
// done right.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.hpp"
#include "isa/program.hpp"

namespace perfbench {

/// Sizes of the batch workloads (fixed; the seed only changes data).
struct ComputeSize {
  std::uint32_t threads = 4;
  std::uint32_t words = 4096;  ///< per-thread array length
  std::uint32_t reps = 80;
};
struct MigrateSize {
  std::uint32_t workers = 4;
  std::uint32_t pages = 2048;
  std::uint32_t passes = 8;
};
struct WalkSize {
  std::uint32_t workers = 4;
  std::uint32_t bytes = 2u << 20;
  std::uint32_t reps = 4;
};

/// dbt_compute: each thread runs an integer kernel (load, call, data-
/// dependent branch, store) over its own array; prints one checksum per
/// thread.
[[nodiscard]] dqemu::Result<dqemu::isa::Program> dbt_compute(
    const ComputeSize& size, std::uint64_t seed);
[[nodiscard]] std::string dbt_compute_expected(const ComputeSize& size,
                                               std::uint64_t seed);

/// The dbt_compute kernel for one thread as a stand-alone program that ends
/// in exit (no threads, no runtime): the input of the DBT probe.
[[nodiscard]] dqemu::Result<dqemu::isa::Program> dbt_kernel_probe(
    const ComputeSize& size, std::uint64_t seed);

/// dsm_migrate: main seeds one word per page of an mmap'd region; each pass
/// every worker read-modify-writes the word of each page in a rotating,
/// page-disjoint quarter, with a barrier between passes; main folds every
/// word into one printed checksum.
[[nodiscard]] dqemu::Result<dqemu::isa::Program> dsm_migrate(
    const MigrateSize& size, std::uint64_t seed);
[[nodiscard]] std::string dsm_migrate_expected(const MigrateSize& size,
                                               std::uint64_t seed);

/// memwalk: main seeds one word per page of an mmap'd region; each worker
/// byte-walks its page-disjoint slice `reps` times summing every byte;
/// prints one checksum per worker.
[[nodiscard]] dqemu::Result<dqemu::isa::Program> memwalk(
    const WalkSize& size, std::uint64_t seed);
[[nodiscard]] std::string memwalk_expected(const WalkSize& size,
                                           std::uint64_t seed);

}  // namespace perfbench
