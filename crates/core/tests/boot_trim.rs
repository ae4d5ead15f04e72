//! `SystemBuilder::build_image` trims trailing zeros only below the
//! frames the layout allocated. That bound is exact: for every workload
//! profile and for a characterization probe system, the retained bytes
//! equal a trailing-zero trim of all of physical memory, and no nonzero
//! byte lies at or above the first unallocated frame.

use vax780::{ProcessSpec, SystemBuilder, SystemConfig};
use vax_arch::{AddressingMode, Opcode};
use vax_asm::probe::{probe_loop, probe_target};
use vax_mem::{PhysAddr, PAGE_SIZE};
use vax_workload::rte::{shard_processes, PROCESSES_PER_WORKLOAD};
use vax_workload::{quiesced_config, Workload};

fn assert_trim_is_exact(builder: SystemBuilder, label: &str) {
    let (image, mem, frames) = builder.build_image_and_memory();
    let phys = mem.phys();
    let all = phys.slice(PhysAddr(0), phys.size());
    let full_trim = all.len() - all.iter().rev().take_while(|&&b| b == 0).count();
    assert_eq!(
        image.retained_bytes(),
        full_trim,
        "{label}: bounded trim differs from the whole-memory trim"
    );
    let bound = (frames * PAGE_SIZE) as usize;
    assert!(bound <= all.len(), "{label}: frame bound past memory");
    assert!(
        all[bound..].iter().all(|&b| b == 0),
        "{label}: nonzero byte at or above frame {frames}"
    );
    assert!(full_trim > 0 && full_trim <= bound, "{label}: empty image");
}

#[test]
fn workload_images_keep_every_nonzero_byte() {
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        let mut b = SystemBuilder::new(SystemConfig::default());
        for spec in shard_processes(w, PROCESSES_PER_WORKLOAD, 1984 + i as u64) {
            b.add_process(spec);
        }
        assert_trim_is_exact(b, w.name());
    }
}

#[test]
fn probe_system_image_keeps_every_nonzero_byte() {
    let target = probe_target(Opcode::Addl2, AddressingMode::RegisterDeferred).unwrap();
    let probe = probe_loop(Some(&target), 4).unwrap();
    let mut b = SystemBuilder::new(quiesced_config());
    b.add_process(ProcessSpec::new(probe.image.clone(), "entry"));
    assert_trim_is_exact(b, "probe system");
}
