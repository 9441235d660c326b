//! Golden simulated cost of the DPU kernel.
//!
//! The kernel's simulated time comes from `CellCosts` and its DMA traffic,
//! never from how fast the host computes the DP. These constants pin both
//! for one seeded batch, so a host-only change to the engine or the kernel
//! loop (which must leave `sim_dpu_s` exactly unchanged) cannot move them
//! silently. A deliberate change to the cost model updates them here.

use dpu_kernel::{JobBatchBuilder, KernelParams, NwKernel};
use nw_core::rng::SplitMix64;
use nw_core::seq::{Base, DnaSeq};
use pim_sim::dpu::Kernel;
use pim_sim::stats::AggregateStats;
use pim_sim::{Dpu, DpuConfig};

/// Three related pairs (2 % substitutions, short indels, one 90-base
/// insertion) of different lengths.
fn pairs() -> Vec<(DnaSeq, DnaSeq)> {
    let mut rng = SplitMix64::new(0x601D_C057);
    [1_500usize, 2_400, 700]
        .iter()
        .map(|&len| {
            let a: Vec<Base> = (0..len)
                .map(|_| Base::from_code(rng.below(4) as u8))
                .collect();
            let mut b = Vec::with_capacity(len + 128);
            for (x, &base) in a.iter().enumerate() {
                if x == len / 2 && len > 2_000 {
                    b.extend((0..90).map(|_| Base::from_code(rng.below(4) as u8)));
                }
                match rng.below(100) {
                    0 | 1 => b.push(Base::from_code(base.code() ^ 1)),
                    2 => {}
                    3 => b.extend([base, Base::from_code(rng.below(4) as u8)]),
                    _ => b.push(base),
                }
            }
            (DnaSeq::from_bases(a), DnaSeq::from_bases(b))
        })
        .collect()
}

/// Run the batch on one DPU per pair; return the aggregate stats and each
/// result record's stored checksum.
fn run(score_only: bool) -> (AggregateStats, Vec<u32>) {
    let params = KernelParams {
        score_only,
        ..KernelParams::paper_default()
    };
    let kernel = NwKernel::paper_default();
    let mut agg = AggregateStats::default();
    let mut sums = Vec::new();
    for (a, b) in pairs() {
        let mut builder = JobBatchBuilder::new(params, kernel.pool_cfg.pools);
        builder.add_pair(a.pack(), b.pack());
        let mut dpu = Dpu::new(DpuConfig::default());
        let batch = builder.build(dpu.cfg.mram_size).unwrap();
        dpu.mram.host_write(0, &batch.image).unwrap();
        kernel.run(&mut dpu).unwrap();
        agg.add(&dpu.stats);
        sums.extend(
            batch
                .read_raw_results(&dpu.mram)
                .unwrap()
                .iter()
                .map(|r| r.stored_sum),
        );
    }
    (agg, sums)
}

fn pinned(agg: &AggregateStats) -> [u64; 5] {
    [
        agg.total.instructions,
        agg.total.cycles,
        agg.max_cycles,
        agg.total.dma_read_bytes,
        agg.total.dma_write_bytes,
    ]
}

#[test]
fn traceback_batch_cost_is_pinned() {
    let (agg, sums) = run(false);
    assert_eq!(
        pinned(&agg),
        [47_412_067, 294_834_872, 157_496_636, 305_904, 595_888],
        "instructions, cycles, max cycles, DMA read/write bytes"
    );
    assert_eq!(
        sums,
        [2_224_145_436, 3_510_160_891, 3_350_295_195],
        "result checksums"
    );
}

#[test]
fn score_only_batch_cost_is_pinned() {
    let (agg, sums) = run(true);
    assert_eq!(
        pinned(&agg),
        [42_712_066, 264_572_916, 141_332_796, 2_544, 72],
        "instructions, cycles, max cycles, DMA read/write bytes"
    );
    assert_eq!(
        sums,
        [448_409_962, 3_102_164_946, 1_085_638_151],
        "result checksums"
    );
}
