//! `SystemBuilder::build_image` keeps only the pages below the frames the
//! layout allocated that hold a nonzero byte. That capture is exact: for
//! every workload profile and for a characterization probe system, the
//! image holds exactly the nonzero pages below the frame bound, nothing
//! nonzero lies at or above the bound, and a machine rehydrated from the
//! image has the builder's memory byte for byte.

use vax780::{ProcessSpec, System, SystemBuilder, SystemConfig};
use vax_arch::{AddressingMode, Opcode};
use vax_asm::probe::{probe_loop, probe_target};
use vax_mem::{PhysAddr, PAGE_SIZE};
use vax_workload::rte::{shard_processes, PROCESSES_PER_WORKLOAD};
use vax_workload::{quiesced_config, Workload};

fn assert_pages_are_exact(builder: SystemBuilder, label: &str) {
    let (image, mem, frames) = builder.build_image_and_memory();
    let phys = mem.phys();
    let all = phys.slice(PhysAddr(0), phys.size());
    let bound = (frames * PAGE_SIZE) as usize;
    assert!(bound <= all.len(), "{label}: frame bound past memory");
    assert!(
        all[bound..].iter().all(|&b| b == 0),
        "{label}: nonzero byte at or above frame {frames}"
    );
    let nonzero: Vec<u32> = all[..bound]
        .chunks_exact(PAGE_SIZE as usize)
        .enumerate()
        .filter(|(_, page)| page.iter().any(|&b| b != 0))
        .map(|(pfn, _)| pfn as u32)
        .collect();
    assert!(!nonzero.is_empty(), "{label}: empty image");
    assert_eq!(
        image.frames(),
        &nonzero[..],
        "{label}: retained frames differ from the nonzero pages"
    );
    assert_eq!(
        image.retained_bytes(),
        nonzero.len() * PAGE_SIZE as usize,
        "{label}: retained bytes are not one page per frame"
    );
    let system = System::from_boot_image(&image);
    let rehydrated = system.cpu.mem.phys();
    assert_eq!(rehydrated.size(), all.len(), "{label}: memory size");
    assert!(
        rehydrated.slice(PhysAddr(0), rehydrated.size()) == all,
        "{label}: rehydrated memory differs from the builder's"
    );
}

#[test]
fn workload_images_keep_every_nonzero_byte() {
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        let mut b = SystemBuilder::new(SystemConfig::default());
        for spec in shard_processes(w, PROCESSES_PER_WORKLOAD, 1984 + i as u64) {
            b.add_process(spec);
        }
        assert_pages_are_exact(b, w.name());
    }
}

#[test]
fn probe_system_image_keeps_every_nonzero_byte() {
    let target = probe_target(Opcode::Addl2, AddressingMode::RegisterDeferred).unwrap();
    let probe = probe_loop(Some(&target), 4).unwrap();
    let mut b = SystemBuilder::new(quiesced_config());
    b.add_process(ProcessSpec::new(probe.image.clone(), "entry"));
    assert_pages_are_exact(b, "probe system");
}
