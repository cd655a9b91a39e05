#include "programs.hpp"

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "guestlib/runtime.hpp"
#include "isa/assembler.hpp"
#include "workloads/common.hpp"

namespace perfbench {

using dqemu::isa::Assembler;
using dqemu::isa::Sys;
using enum dqemu::isa::Reg;

namespace {

constexpr std::uint32_t kPage = 4096;
/// Multiplier of the dsm_migrate update (FNV-1 32-bit prime).
constexpr std::uint32_t kMigrateMul = 16777619u;

std::string lines(const std::vector<std::uint32_t>& values) {
  std::string out;
  for (const std::uint32_t v : values) out += std::to_string(v) + "\n";
  return out;
}

/// acc * 31 + x, the fold every checksum uses.
std::uint32_t fold(std::uint32_t acc, std::uint32_t x) {
  return acc * 31u + x;
}

/// Emits acc = acc * 31 + x (clobbers `tmp`).
void emit_fold(Assembler& a, dqemu::isa::Reg acc, dqemu::isa::Reg x,
               dqemu::isa::Reg tmp) {
  a.slli(tmp, acc, 5);
  a.sub(tmp, tmp, acc);
  a.add(acc, tmp, x);
}

void emit_words(Assembler& a, std::span<const std::uint32_t> words) {
  for (const std::uint32_t w : words) a.d_word(w);
}

/// Word offset inside page `p` that the region workloads use: an even word
/// index, so the optional second word stays inside the page.
constexpr std::uint32_t kOffsetMask = 1022;

/// Emits dst = base + page * 4096 + ((page * 37 + salt) & kOffsetMask) * 4
/// (clobbers a1 and `tmp`).
void emit_word_addr(Assembler& a, dqemu::isa::Reg dst, dqemu::isa::Reg base,
                    dqemu::isa::Reg page, dqemu::isa::Reg tmp,
                    std::uint32_t salt) {
  a.li(kA1, 37);
  a.mul(tmp, page, kA1);
  a.addi(tmp, tmp, static_cast<std::int32_t>(salt));
  a.andi(tmp, tmp, kOffsetMask);
  a.slli(tmp, tmp, 2);
  a.slli(dst, page, 12);
  a.add(dst, dst, base);
  a.add(dst, dst, tmp);
}

/// Seeded inputs of the region workloads: the word-offset salt and one
/// initial word per page.
struct RegionInput {
  std::uint32_t salt = 0;
  std::vector<std::uint32_t> words;
};

RegionInput region_input(std::uint32_t pages, std::uint64_t seed) {
  dqemu::Rng rng(seed ^ 0x5EEDF00DULL);
  RegionInput in;
  in.salt = static_cast<std::uint32_t>(rng.next() % 1024);
  in.words.resize(pages);
  for (auto& w : in.words) w = static_cast<std::uint32_t>(rng.next());
  return in;
}

/// Emits main's prologue for the region workloads: mmap `bytes`, publish
/// the base in `region`, and copy inputs[p] to page p's word; an input
/// whose low five bits are zero is also copied to the next word (a rarely
/// taken data-dependent branch, so the instruction count, and with it the
/// virtual time, depends on the seed).
void emit_region_init(Assembler& a, Assembler::Label region,
                      Assembler::Label inputs, std::uint32_t bytes,
                      std::uint32_t salt) {
  a.li(kA0, bytes);
  dqemu::workloads::emit_syscall(a, Sys::kMmap);
  a.la(kT0, region);
  a.sw(kT0, kA0, 0);
  a.mov(kT1, kA0);
  a.li(kT2, 0);
  a.la(kT0, inputs);
  Assembler::Label loop = a.make_label();
  Assembler::Label single = a.make_label();
  a.bind(loop);
  emit_word_addr(a, kT4, kT1, kT2, kT3, salt);
  a.lw(kA2, kT0, 0);
  a.sw(kT4, kA2, 0);
  a.andi(kA3, kA2, 31);
  a.bne(kA3, kZero, single);
  a.sw(kT4, kA2, 4);
  a.bind(single);
  a.addi(kT0, kT0, 4);
  a.addi(kT2, kT2, 1);
  a.li(kA1, bytes / kPage);
  a.bne(kT2, kA1, loop);
}

/// Seeded arrays of dbt_compute, thread after thread.
std::vector<std::uint32_t> compute_input(const ComputeSize& size,
                                         std::uint64_t seed) {
  dqemu::Rng rng(seed ^ 0xDB7C0DEULL);
  std::vector<std::uint32_t> words(std::size_t{size.threads} * size.words);
  for (auto& w : words) w = static_cast<std::uint32_t>(rng.next());
  return words;
}

/// Emits worker(a0 = thread index) of dbt_compute plus its `mix` helper.
void emit_compute_worker(Assembler& a, const ComputeSize& size,
                         Assembler::Label worker, Assembler::Label arrays,
                         Assembler::Label results) {
  const std::int64_t row_bytes = std::int64_t{size.words} * 4;
  Assembler::Label mix = a.make_label();
  Assembler::Label rep = a.make_label();
  Assembler::Label elem = a.make_label();
  Assembler::Label final_fold = a.make_label();

  a.bind(worker);
  a.addi(kSp, kSp, -16);
  a.sw(kSp, kRa, 0);
  a.sw(kSp, kA0, 8);
  a.li(kT0, row_bytes);
  a.mul(kT0, kA0, kT0);
  a.la(kT1, arrays);
  a.add(kS0, kT1, kT0);  // my array
  a.addi(kS2, kA0, 1);   // acc
  a.li(kT0, size.reps);
  a.sw(kSp, kT0, 4);
  a.bind(rep);
  a.li(kS1, 0);
  a.bind(elem);
  a.add(kT1, kS0, kS1);
  a.lw(kA0, kT1, 0);
  a.mov(kA1, kS2);
  a.call(mix);
  a.mov(kS2, kA0);
  a.add(kT1, kS0, kS1);
  a.sw(kT1, kA1, 0);
  a.addi(kS1, kS1, 4);
  a.li(kT0, row_bytes);
  a.bne(kS1, kT0, elem);
  a.lw(kT0, kSp, 4);
  a.addi(kT0, kT0, -1);
  a.sw(kSp, kT0, 4);
  a.bne(kT0, kZero, rep);
  // Fold the final array into the checksum as well.
  a.li(kS1, 0);
  a.bind(final_fold);
  a.add(kT1, kS0, kS1);
  a.lw(kT2, kT1, 0);
  emit_fold(a, kS2, kT2, kT0);
  a.addi(kS1, kS1, 4);
  a.li(kT0, row_bytes);
  a.bne(kS1, kT0, final_fold);
  a.lw(kT0, kSp, 8);
  a.slli(kT0, kT0, 2);
  a.la(kT1, results);
  a.add(kT1, kT1, kT0);
  a.sw(kT1, kS2, 0);
  a.li(kA0, 0);
  a.lw(kRa, kSp, 0);
  a.addi(kSp, kSp, 16);
  a.ret();

  // mix(a0 = x, a1 = acc) -> a0 = acc * 31 + x, a1 = the new x, which
  // depends on x's low five bits: a data-dependent branch that is rarely
  // taken (1 in 32), like most branches of real code, so the DBT's hot
  // traces follow the common path whatever the seed.
  Assembler::Label common = a.make_label();
  Assembler::Label done = a.make_label();
  a.bind(mix);
  a.slli(kT0, kA1, 5);
  a.sub(kT0, kT0, kA1);
  a.add(kT0, kT0, kA0);
  a.andi(kT1, kA0, 31);
  a.bne(kT1, kZero, common);
  a.srli(kT2, kT0, 3);
  a.add(kA1, kA0, kT2);
  a.j(done);
  a.bind(common);
  a.slli(kT2, kT0, 1);
  a.xor_(kA1, kA0, kT2);
  a.bind(done);
  a.mov(kA0, kT0);
  a.ret();
}

}  // namespace

dqemu::Result<dqemu::isa::Program> dbt_compute(const ComputeSize& size,
                                               std::uint64_t seed) {
  const std::vector<std::uint32_t> words = compute_input(size, seed);

  Assembler a;
  Assembler::Label main_fn = a.make_label("main");
  Assembler::Label worker = a.make_label("worker");
  Assembler::Label arrays = a.make_label("arrays");
  Assembler::Label results = a.make_label("results");
  dqemu::guestlib::emit_crt0(a, main_fn);
  dqemu::guestlib::Runtime rt = dqemu::guestlib::emit_runtime(a);
  emit_compute_worker(a, size, worker, arrays, results);

  dqemu::workloads::ParallelMainOptions options;
  options.threads = size.threads;
  options.epilogue = [&](Assembler& as) {
    for (std::uint32_t t = 0; t < size.threads; ++t) {
      as.la(kT0, results);
      as.lw(kA0, kT0, static_cast<std::int32_t>(t * 4));
      as.call(rt.print_u32);
    }
  };
  dqemu::workloads::emit_parallel_main(a, rt, main_fn, worker, options);

  a.d_align(kPage);
  a.bind_data(arrays);
  emit_words(a, words);
  a.bind_data(results);
  a.d_space(size.threads * 4);
  return a.finalize();
}

std::string dbt_compute_expected(const ComputeSize& size,
                                 std::uint64_t seed) {
  std::vector<std::uint32_t> words = compute_input(size, seed);
  std::vector<std::uint32_t> sums(size.threads);
  for (std::uint32_t t = 0; t < size.threads; ++t) {
    std::uint32_t* row = &words[std::size_t{t} * size.words];
    std::uint32_t acc = t + 1;
    for (std::uint32_t r = 0; r < size.reps; ++r) {
      for (std::uint32_t i = 0; i < size.words; ++i) {
        const std::uint32_t x = row[i];
        acc = fold(acc, x);
        row[i] = (x & 31u) == 0 ? x + (acc >> 3) : x ^ (acc << 1);
      }
    }
    for (std::uint32_t i = 0; i < size.words; ++i) acc = fold(acc, row[i]);
    sums[t] = acc;
  }
  return lines(sums);
}

dqemu::Result<dqemu::isa::Program> dbt_kernel_probe(const ComputeSize& size,
                                                    std::uint64_t seed) {
  const std::vector<std::uint32_t> words = compute_input(size, seed);
  Assembler a;
  Assembler::Label worker = a.make_label("worker");
  Assembler::Label arrays = a.make_label("arrays");
  Assembler::Label results = a.make_label("results");
  Assembler::Label stack = a.make_label("stack");
  a.la(kSp, stack);
  a.li(kA0, 0);
  a.call(worker);
  a.syscall(static_cast<std::int32_t>(Sys::kExit));
  emit_compute_worker(a, size, worker, arrays, results);

  a.d_align(kPage);
  a.bind_data(arrays);
  emit_words(a, std::span(words).first(size.words));
  a.bind_data(results);
  a.d_space(4);
  a.d_space(256);  // the worker's stack, growing down from `stack`
  a.d_align(16);
  a.bind_data(stack);
  return a.finalize();
}

dqemu::Result<dqemu::isa::Program> dsm_migrate(const MigrateSize& size,
                                               std::uint64_t seed) {
  const RegionInput in = region_input(size.pages, seed);
  const std::uint32_t salt = in.salt;
  const std::uint32_t quarter = size.pages / size.workers;

  Assembler a;
  Assembler::Label main_fn = a.make_label("main");
  Assembler::Label worker = a.make_label("worker");
  Assembler::Label region = a.make_label("region");
  Assembler::Label barrier = a.make_label("barrier");
  Assembler::Label inputs = a.make_label("inputs");
  dqemu::guestlib::emit_crt0(a, main_fn);
  dqemu::guestlib::Runtime rt = dqemu::guestlib::emit_runtime(a);

  // worker(a0 = w): s0 = w, s1 = pass, s2 = region base.
  {
    Assembler::Label pass = a.make_label();
    Assembler::Label page = a.make_label();
    a.bind(worker);
    a.addi(kSp, kSp, -16);
    a.sw(kSp, kRa, 0);
    a.mov(kS0, kA0);
    a.la(kT0, region);
    a.lw(kS2, kT0, 0);
    a.li(kS1, 0);
    a.bind(pass);
    a.add(kT0, kS0, kS1);
    a.li(kT1, size.workers);
    a.remu(kT0, kT0, kT1);  // this pass's slice
    a.li(kA3, quarter);
    a.mul(kT0, kT0, kA3);   // first page
    a.add(kT1, kT0, kA3);   // end page
    a.slli(kA2, kS0, 4);
    a.add(kA2, kA2, kS1);
    a.addi(kA2, kA2, 1);    // addend = w * 16 + pass + 1
    a.li(kA3, kMigrateMul);
    a.bind(page);
    emit_word_addr(a, kT4, kS2, kT0, kT3, salt);
    a.lw(kT2, kT4, 0);
    a.mul(kT2, kT2, kA3);
    a.add(kT2, kT2, kA2);
    a.sw(kT4, kT2, 0);
    a.addi(kT0, kT0, 1);
    a.bne(kT0, kT1, page);
    // barrier_wait leaves a3 as it finds it, and the futex syscall reads a3
    // as its fourth argument (nonzero = asynchronous wake, never answered).
    a.li(kA3, 0);
    a.la(kA0, barrier);
    a.call(rt.barrier_wait);
    a.addi(kS1, kS1, 1);
    a.li(kT0, size.passes);
    a.bne(kS1, kT0, pass);
    a.li(kA0, 0);
    a.lw(kRa, kSp, 0);
    a.addi(kSp, kSp, 16);
    a.ret();
  }

  dqemu::workloads::ParallelMainOptions options;
  options.threads = size.workers;
  options.prologue = [&](Assembler& as) {
    emit_region_init(as, region, inputs, size.pages * kPage, salt);
  };
  options.epilogue = [&](Assembler& as) {
    Assembler::Label loop = as.make_label();
    as.la(kT0, region);
    as.lw(kT1, kT0, 0);
    as.li(kT2, 0);
    as.li(kA0, 0);
    as.bind(loop);
    emit_word_addr(as, kT4, kT1, kT2, kT3, salt);
    as.lw(kT4, kT4, 0);
    emit_fold(as, kA0, kT4, kT3);
    as.addi(kT2, kT2, 1);
    as.li(kA1, size.pages);
    as.bne(kT2, kA1, loop);
    as.call(rt.print_u32);
  };
  dqemu::workloads::emit_parallel_main(a, rt, main_fn, worker, options);

  a.d_align(4);
  a.bind_data(region);
  a.d_word(0);
  a.bind_data(inputs);
  emit_words(a, in.words);
  a.d_align(kPage);
  a.bind_data(barrier);
  a.d_word(0);
  a.d_word(0);
  a.d_word(size.workers);
  return a.finalize();
}

std::string dsm_migrate_expected(const MigrateSize& size, std::uint64_t seed) {
  const std::uint32_t quarter = size.pages / size.workers;
  std::vector<std::uint32_t> words = region_input(size.pages, seed).words;
  for (std::uint32_t k = 0; k < size.passes; ++k) {
    for (std::uint32_t w = 0; w < size.workers; ++w) {
      const std::uint32_t first = ((w + k) % size.workers) * quarter;
      for (std::uint32_t p = first; p < first + quarter; ++p) {
        words[p] = words[p] * kMigrateMul + (w * 16 + k + 1);
      }
    }
  }
  std::uint32_t sum = 0;
  for (const std::uint32_t w : words) sum = fold(sum, w);
  return lines({sum});
}

dqemu::Result<dqemu::isa::Program> memwalk(const WalkSize& size,
                                           std::uint64_t seed) {
  const RegionInput in = region_input(size.bytes / kPage, seed);
  const std::uint32_t slice = size.bytes / size.workers;

  Assembler a;
  Assembler::Label main_fn = a.make_label("main");
  Assembler::Label worker = a.make_label("worker");
  Assembler::Label region = a.make_label("region");
  Assembler::Label results = a.make_label("results");
  Assembler::Label inputs = a.make_label("inputs");
  dqemu::guestlib::emit_crt0(a, main_fn);
  dqemu::guestlib::Runtime rt = dqemu::guestlib::emit_runtime(a);

  // worker(a0 = w): s0 = slice base, s1 = reps left, s2 = acc.
  {
    Assembler::Label rep = a.make_label();
    Assembler::Label bytes = a.make_label();
    a.bind(worker);
    a.addi(kSp, kSp, -16);
    a.slli(kT0, kA0, 12);
    a.la(kT1, results);
    a.add(kT0, kT1, kT0);
    a.sw(kSp, kT0, 0);  // my page-private result slot
    a.la(kT0, region);
    a.lw(kS0, kT0, 0);
    a.li(kT1, slice);
    a.mul(kT1, kA0, kT1);
    a.add(kS0, kS0, kT1);
    a.li(kS1, size.reps);
    a.li(kS2, 0);
    a.bind(rep);
    a.mov(kT1, kS0);
    a.li(kT2, slice / 4);
    a.li(kA1, 0);
    a.bind(bytes);
    for (std::int32_t u = 0; u < 4; ++u) {
      a.lbu(kT3, kT1, u);
      a.add(kA1, kA1, kT3);
    }
    a.addi(kT1, kT1, 4);
    a.addi(kT2, kT2, -1);
    a.bne(kT2, kZero, bytes);
    emit_fold(a, kS2, kA1, kT0);
    a.addi(kS1, kS1, -1);
    a.bne(kS1, kZero, rep);
    a.lw(kT0, kSp, 0);
    a.sw(kT0, kS2, 0);
    a.addi(kSp, kSp, 16);
    a.li(kA0, 0);
    a.ret();
  }

  dqemu::workloads::ParallelMainOptions options;
  options.threads = size.workers;
  options.prologue = [&](Assembler& as) {
    emit_region_init(as, region, inputs, size.bytes, in.salt);
  };
  options.epilogue = [&](Assembler& as) {
    for (std::uint32_t w = 0; w < size.workers; ++w) {
      as.la(kT0, results);
      as.li(kT1, std::int64_t{w} * kPage);
      as.add(kT0, kT0, kT1);
      as.lw(kA0, kT0, 0);
      as.call(rt.print_u32);
    }
  };
  dqemu::workloads::emit_parallel_main(a, rt, main_fn, worker, options);

  a.d_align(4);
  a.bind_data(region);
  a.d_word(0);
  a.bind_data(inputs);
  emit_words(a, in.words);
  a.d_align(kPage);
  a.bind_data(results);
  a.d_space(size.workers * kPage);
  return a.finalize();
}

std::string memwalk_expected(const WalkSize& size, std::uint64_t seed) {
  const std::vector<std::uint32_t> words =
      region_input(size.bytes / kPage, seed).words;
  const std::uint32_t pages_per_slice = size.bytes / size.workers / kPage;
  std::vector<std::uint32_t> sums(size.workers);
  for (std::uint32_t w = 0; w < size.workers; ++w) {
    std::uint32_t bytes_sum = 0;
    for (std::uint32_t p = w * pages_per_slice; p < (w + 1) * pages_per_slice;
         ++p) {
      const std::uint32_t v = words[p];
      const std::uint32_t copies = (v & 31u) == 0 ? 2 : 1;
      bytes_sum += copies * ((v & 0xFF) + ((v >> 8) & 0xFF) +
                             ((v >> 16) & 0xFF) + (v >> 24));
    }
    std::uint32_t acc = 0;
    for (std::uint32_t r = 0; r < size.reps; ++r) acc = fold(acc, bytes_sum);
    sums[w] = acc;
  }
  return lines(sums);
}

}  // namespace perfbench
