#!/usr/bin/env python3
"""Assemble EXPERIMENTS.md from bench_output.txt plus per-experiment
reproduction commentary.  Run from the repo root after
`for b in build/bench/*; do $b; done > bench_output.txt`."""
import re

RAW = open('bench_output.txt').read()


def section(name):
    m = re.search(r'^##### ' + re.escape(name) + r'\n(.*?)(?=^##### |\Z)',
                  RAW, re.S | re.M)
    return m.group(1).strip() if m else '(missing from bench_output.txt)'


COMMENTARY = {}

COMMENTARY['table5_p4'] = """### Table 5 — P4 activation and failure distribution  `bench/table5_p4`

Paper claims to check: stack errors manifest strongly (56.1% of activated);
data errors even more (66%); registers weakly (~11% of injected); code
errors activate often (54.9%) and crash or hang in two thirds of cases; no
stack FSVs; small code FSVs.

Status: **[match]** on every ordering.  Known divergences: our code
activation is higher (the profile covers exactly the benchmarked window,
so hot-function breakpoints are almost always reached) and stack/data
activation is lower in absolute terms (see DESIGN.md sections 6.4/6.7)."""

COMMENTARY['table6_g4'] = """### Table 6 — G4 activation and failure distribution  `bench/table6_g4`

Paper claims to check: everything manifests LESS than on the P4 — stack
21.1%, data 21.7%, registers ~4.9% — while code errors stay comparable;
data errors can produce FSVs (1%).

Status: **[match]**.  The G4-vs-P4 manifestation ratios reproduce with the
right factors (stack ~2.5x lower, register ~3-4x lower), and they emerge
from the layout/ISA mechanisms, not tuning: see the ablations below."""

COMMENTARY['fig4_5_crash_causes'] = """### Figures 4 & 5 — overall crash-cause distributions  `bench/fig4_5_crash_causes`

Campaigns are weighted by the paper's per-campaign injection counts so the
overall mix is comparable.  Paper claims: ~71% of P4 crashes and ~67% of
G4 crashes are invalid memory accesses; illegal instructions ~16% on both;
stack overflow only on the G4; panics ~0.1%.

Status: **[match]** for the invalid-memory dominance and the G4-only
Stack Overflow slice; Invalid/Illegal Instruction shares trend high on the
G4 and low on the P4 relative to the paper (see the Figure 6/11 notes)."""

COMMENTARY['fig6_stack_causes'] = """### Figure 6 — stack-injection crash causes  `bench/fig6_stack_causes`

Paper claims: Stack Overflow (41.9%) and Bad Area (53.5%) dominate the G4;
Bad Paging (45.4%) and NULL Pointer (31.5%) dominate the P4, with NO stack
overflow category on the P4 at all.

Status: **[match]** for the central claim (G4 Stack Overflow present at a
large share, P4 at exactly zero; P4 dominated by paging-class faults).
**[gap]**: the P4's Invalid Instruction (15.9%) and GP (5.5%) slices are
under-produced — our wild jumps land in valid kernel text more often than
on a real machine with a vastly larger address space (DESIGN.md 6.7)."""

COMMENTARY['fig10_register_causes'] = """### Figure 10 — system-register crash causes  `bench/fig10_register_causes`

Paper claims: on the P4 — GP (CR0/FS/GS class), Bad Paging + NULL (ESP),
Invalid Instruction (EIP), a little Invalid TSS (EFLAGS.NT); on the G4 —
Bad Area dominates (75.4%, SP class), Illegal Instruction (SPRG2/HID0),
some machine checks (MSR.IR/DR).

Status: **[match]**: every register-to-cause pathway the paper names is
implemented and observed (see also examples/register_sensitivity and the
worked-example tests).  The G4's Stack Overflow share runs higher than the
paper's 4.3% because our wrapper classifies any out-of-range SP at
exception entry."""

COMMENTARY['fig11_code_causes'] = """### Figure 11 — code-injection crash causes  `bench/fig11_code_causes`

Paper claims: invalid memory accesses ~70% (P4) vs ~50% (G4); Illegal
Instruction 41.5% (G4) vs 24.2% (P4) — the direct signature of fixed-width
sparse encodings vs variable-length dense ones; small G4-only stack
overflow (4.7%) because corrupted instructions rarely hit the few
stack-carrying registers.

Status: **[match]** — this is the reproduction's strongest figure; all
four contrasts land within a few points."""

COMMENTARY['fig12_data_causes'] = """### Figure 12 — data-injection crash causes  `bench/fig12_data_causes`

Paper claims: invalid memory accesses dominate both (89% G4 / 80% P4);
Invalid/Illegal Instruction present on both (17.7% / 9.1%) because the
kernel's own checking (Figure 13's spinlock magic) reports data corruption
as an instruction exception.

Status: **[match]** in direction; small-sample noise is visible (data
campaigns produce few crashes at bench scale, like the paper's 96/55)."""

COMMENTARY['fig14_regroup_study'] = """### Figures 14 & 15 — bit flips vs. instruction encodings  `bench/fig14_regroup_study`

An exhaustive decoder study over every instruction and bit of both kernel
images.  Paper claims: on the P4 a flip usually yields a different VALID
instruction and can re-group the downstream stream (Figure 14); on the G4
a flip stays within one word and often lands on a reserved encoding
(Figure 15), whose exact mflr->lhax example is reproduced bit-for-bit.

Status: **[match]** — ~95% of P4 flips stay executable and ~23% re-align
the stream (averaging ~4.5 corrupted instructions before re-sync); ~14% of
G4 text flips are immediately illegal, with the rest staying valid
(crash-level illegal shares are higher because corrupted execution also
reaches data and zero words)."""

COMMENTARY['fig16_latency'] = """### Figure 16 — cycles-to-crash distributions  `bench/fig16_latency`

Paper claims: (A) G4 stack crashes are fast (80% < 3k, the wrapper) while
P4 stack crashes sit in 3k-100k (undetected propagation); (B) register
errors are long-lived, with the G4's SP/SPRG2 crashes taking millions of
cycles; (C) the trend INVERTS for code errors — P4 fast (70% < 10k,
re-aligned streams fail fast), G4 slow (values linger in its 32 registers);
(D) data errors have a long latent tail on both.

Status: **[match]** for (A)'s inversion (G4 fast / P4 slower; the P4's
exception-handling floor alone is 4-10k, cf. the paper's Figure 8), for
(B) including the long G4 SP/SPRG2 latencies, and for (D)'s long tail.
**[partial]** for (C): the P4-faster-than-G4 ordering in the short buckets
reproduces, but our G4 mass sits lower (3k-10k) than the paper's
10k-100k — our kernel functions are an order of magnitude shorter than
Linux's, so intra-function distance from activation to the corrupted
instruction is structurally smaller (DESIGN.md 6.7)."""

COMMENTARY['ablation_p4_stackcheck'] = """### Ablation X1 — the paper's proposed P4 PUSH/POP stack check  `bench/ablation_p4_stackcheck`

Section 7 of the paper proposes extending PUSH/POP semantics to check ESP
against the allocated stack.  With the extension enabled, wild-ESP cases
are intercepted at the stack operation itself (as GP-class faults) instead
of surfacing later as Bad Paging elsewhere."""

COMMENTARY['ablation_g4_wrapper'] = """### Ablation X2 — the G4 exception-entry stack wrapper  `bench/ablation_g4_wrapper`

Disabling the wrapper makes the G4 behave like the P4 exactly as Section 6
describes: the Stack Overflow category disappears and those crashes
re-surface as Bad Area with slower detection."""

COMMENTARY['ablation_spinlock_checks'] = """### Ablation X3 — SPINLOCK_DEBUG magic checks  `bench/ablation_spinlock_checks`

Targeted flips into every spinlock magic word: with the checks compiled in
(Figure 13), 100% are caught within ~10k cycles and reported as
Invalid/Illegal Instruction; without them the same flips are completely
silent.  This quantifies the paper's diagnosability point: the detector is
fast but mislabels data corruption as an instruction exception."""

SIMULATOR_SPEED = """### M1/M2 — simulator speed, layer by layer  `kfibench/`

The simulator's own speed has one instrument, `kfibench/` (method in
`kfibench/BENCHMARK.md`). `python3 kfibench/run.py --workload
inproc-serial --trace 1` reports host ns per retired instruction
(`cisca.ns_per_insn`, `riscf.ns_per_insn`), block statistics
(`*.block_builds`, `*.block_invalidations`, `*.mean_block_len`,
`*.step_fallbacks`), reboot cost (`kernel.reboot_us`,
`kernel.reboot_pages`), syscall cost (`kernel.syscall_us`), image build
(`kir.image_ms`), private pages per worker
(`mem.private_pages_per_worker`), tracing's cost when on
(`bench.trace_overhead_pct`) and the per-injection wall time
(`inj_ms_p50`). Its counts are exact and pinned in `kfibench/pins.json`;
`kfibench/ab.py` compares two trees in interleaved pairs. That the fast
paths are bit-exact, and that tracing changes nothing when a sink is
attached, are ctest checks, not timings: `FastPathParityTest`,
`FastPathPinTest` and `PropagationParityTest`."""

ORDER = ['table5_p4', 'table6_g4', 'fig4_5_crash_causes', 'fig6_stack_causes',
         'fig10_register_causes', 'fig11_code_causes', 'fig12_data_causes',
         'fig14_regroup_study', 'fig16_latency', 'ablation_p4_stackcheck',
         'ablation_g4_wrapper', 'ablation_spinlock_checks']

HEADER = """# EXPERIMENTS — paper vs. measured

Reproduction log for every table and figure in the evaluation of
*"Error Sensitivity of the Linux Kernel Executing on PowerPC G4 and
Pentium 4 Processors"* (DSN 2004).  All measured numbers below come from
one deterministic sweep of the bench binaries
(`for b in build/bench/*; do $b; done`, seed 1, default injection counts;
the full raw output is `bench_output.txt`).  Re-running reproduces them
bit-for-bit; `KFI_INJECTIONS`/`KFI_SEED` scale or vary the campaigns.

**Reading guide.**  Absolute agreement with a 2004 hardware testbed is not
the goal and not possible; the substrate is a simulator (see DESIGN.md
§1/§6).  Each experiment below states the paper's qualitative claim and
whether the reproduction shows the same *shape*: orderings, dominant
categories, and approximate factors.  Campaigns run a few hundred
injections (vs. the paper's 1,790–46,000 per campaign), so categories
below ~2% fluctuate between seeds.

> Status legend: **[match]** shape reproduced • **[partial]** direction
> reproduced, magnitudes differ • **[gap]** documented divergence.

This file is assembled by `scripts/make_experiments_md.py` from the raw
sweep output; the quoted blocks below are verbatim bench output.

## Summary of headline claims

| Paper claim (Section 1) | Status |
|---|---|
| Error activation similar on both processors; P4 manifestation ≈ 2× G4 | **[match]** across stack/data/register campaigns |
| Stack errors: 56% (P4) vs 21% (G4) manifested | **[match]** 42% vs 17% |
| Data errors: 66% (P4) vs 21% (G4) manifested as crashes | **[match]** 67% vs 33%, with the G4's extra benign activations coming from word-per-item padding, as the paper argues |
| Register errors manifest less on both (P4 ≈ 11%, G4 ≈ 5%) | **[match]** 12.5% vs 2.7% |
| Variable-length P4 instructions re-group after a flip → worse diagnosability, more invalid-memory crashes, faster code-error crashes | **[match]** (Figure 14 bench quantifies it; Figure 7 example reproduces byte-for-byte) |
| Fixed 32-bit G4 instructions → high Illegal Instruction share | **[match]** ~41–48% vs paper's 41.5% |
| G4-only Stack Overflow category from the exception-entry wrapper | **[match]** present only on G4; ablation removes it |

The rest of this file walks each table and figure."""

with open('EXPERIMENTS.md', 'w') as f:
    f.write(HEADER)
    f.write('\n\n---\n')
    for name in ORDER:
        f.write('\n' + COMMENTARY[name] + '\n\n')
        f.write('```\n' + section(name) + '\n```\n')
    f.write('\n' + SIMULATOR_SPEED + '\n')
    f.write("""
---

## Reproducing

```sh
cmake -B build -G Ninja && cmake --build build
for b in build/bench/*; do $b; done          # regenerate everything
KFI_INJECTIONS=2000 ./build/bench/table5_p4  # larger campaigns
./build/tools/kfi_campaign --arch g4 --kind stack --n 1000 --csv out
```
All campaigns are seeded and bit-reproducible; see DESIGN.md for the
fidelity notes behind every [partial]/[gap] above.
""")
print('wrote EXPERIMENTS.md')
