//! The VMS-lite kernel, generated as real VAX machine code.
//!
//! The paper measured live VMS timesharing: its per-instruction statistics
//! *include* operating-system activity (one of the UPC method's selling
//! points). Our kernel reproduces the activity classes that matter to the
//! tables: periodic hardware (interval timer) interrupts, software
//! interrupt requests and deliveries, round-robin context switching through
//! SVPCTX/LDPCTX (which flushes the TB process half), and CHMK system
//! services exercising queue instructions and privileged-register access.

use vax_arch::{Opcode, Reg};
use vax_asm::{Asm, Image, Operand};

use Operand::{Imm, Label, Lit, Reg as R};

/// Kernel behaviour knobs, calibrated against paper Table 7.
#[derive(Debug, Clone, Copy)]
pub struct KernelConfig {
    /// Context switch every N timer ticks.
    pub switch_every_ticks: u32,
    /// Request a software interrupt every N timer ticks.
    pub softint_every_ticks: u32,
}

impl Default for KernelConfig {
    fn default() -> Self {
        // With the default 9000-cycle timer (≈850 instructions at the
        // paper's 10.6 CPI): hardware+software interrupt headway ≈640
        // instructions, software-interrupt request headway ≈2550, context
        // switch headway ≈6400 — Table 7's 637 / 2539 / 6418.
        KernelConfig {
            switch_every_ticks: 8,
            softint_every_ticks: 3,
        }
    }
}

/// IPR numbers used by the kernel code (must match `vax_cpu::ipr`).
const PR_PCBB: u8 = 16;
const PR_IPL: u8 = 18;
const PR_SIRR: u8 = 20;

/// The CHMK service codes the kernel implements.
pub mod services {
    /// No-op service (fast system-call path).
    pub const NULL: u32 = 0;
    /// Queue service: INSQUE/REMQUE/PROBER on a kernel queue.
    pub const QUEUE: u32 = 1;
    /// Voluntary reschedule.
    pub const YIELD: u32 = 2;
}

/// Labels of kernel entry points, resolved from the assembled image.
#[derive(Debug, Clone)]
pub struct KernelEntries {
    /// Boot sequence (initial PC).
    pub boot: u32,
    /// Interval-timer interrupt service routine (SCB slot 1).
    pub timer_isr: u32,
    /// Software-interrupt service routine (SCB slot 2).
    pub softint_isr: u32,
    /// CHMK dispatcher (SCB slot 0).
    pub chmk_handler: u32,
    /// Machine-check service routine (SCB slot 3).
    pub mchk_isr: u32,
    /// External-device interrupt service routine (SCB slot 4).
    pub device_isr: u32,
}

/// Generate the kernel image at `origin` (a system virtual address) for
/// `pcb_vas.len()` processes whose PCBs live at the given system addresses.
///
/// # Panics
/// Panics if assembly fails — the kernel is generated code, so a failure is
/// a bug, not an input error.
pub fn build(origin: u32, pcb_vas: &[u32], config: KernelConfig) -> (Image, KernelEntries) {
    let mut image = program(origin, pcb_vas, config)
        .assemble()
        .expect("kernel assembly failed");
    // Patch qhead to be a self-linked (empty) queue.
    let qhead = image.addr_of("qhead");
    let off = (qhead - image.origin) as usize;
    image.bytes[off..off + 4].copy_from_slice(&qhead.to_le_bytes());
    image.bytes[off + 4..off + 8].copy_from_slice(&qhead.to_le_bytes());

    let entries = KernelEntries {
        boot: image.addr_of("boot"),
        timer_isr: image.addr_of("timer_isr"),
        softint_isr: image.addr_of("softint_isr"),
        chmk_handler: image.addr_of("chmk_handler"),
        mchk_isr: image.addr_of("mchk_isr"),
        device_isr: image.addr_of("device_isr"),
    };
    (image, entries)
}

/// The unassembled kernel source that [`build`] assembles and patches.
fn program(origin: u32, pcb_vas: &[u32], config: KernelConfig) -> Asm {
    assert!(!pcb_vas.is_empty(), "kernel needs at least one process");
    let mut a = Asm::new(origin);

    // ---- boot: load the first process context and drop to user mode ----
    a.label("boot");
    a.insn(
        Opcode::Movl,
        &[Label("pcbtab".into()), R(Reg::new(0))],
        None,
    );
    a.insn(Opcode::Mtpr, &[R(Reg::new(0)), Lit(PR_PCBB)], None);
    a.insn(Opcode::Ldpctx, &[], None);
    a.insn(Opcode::Rei, &[], None);

    // ---- interval timer ISR ----
    a.label("timer_isr");
    a.insn(Opcode::Pushr, &[Lit(0b11)], None); // save R0, R1
    a.insn(Opcode::Incl, &[Label("tick_count".into())], None);
    // Software-interrupt request countdown.
    a.insn(Opcode::Decl, &[Label("softint_ctr".into())], None);
    a.insn(Opcode::Bneq, &[], Some("no_soft"));
    a.insn(
        Opcode::Movl,
        &[Imm(config.softint_every_ticks), Label("softint_ctr".into())],
        None,
    );
    a.insn(Opcode::Mtpr, &[Lit(3), Lit(PR_SIRR)], None);
    a.label("no_soft");
    // Context-switch countdown.
    a.insn(Opcode::Decl, &[Label("switch_ctr".into())], None);
    a.insn(Opcode::Bneq, &[], Some("no_switch"));
    a.insn(
        Opcode::Movl,
        &[Imm(config.switch_every_ticks), Label("switch_ctr".into())],
        None,
    );
    a.insn(Opcode::Popr, &[Lit(0b11)], None);
    a.insn(Opcode::Svpctx, &[], None);
    a.insn(Opcode::Brb, &[], Some("resched"));
    a.label("no_switch");
    a.insn(Opcode::Popr, &[Lit(0b11)], None);
    a.insn(Opcode::Rei, &[], None);

    // ---- reschedule: pick the next process (round robin) ----
    a.label("resched");
    a.insn(
        Opcode::Movl,
        &[Label("cur_proc".into()), R(Reg::new(1))],
        None,
    );
    a.insn(Opcode::Incl, &[R(Reg::new(1))], None);
    a.insn(Opcode::Cmpl, &[R(Reg::new(1)), Label("nproc".into())], None);
    a.insn(Opcode::Blss, &[], Some("rs_ok"));
    a.insn(Opcode::Clrl, &[R(Reg::new(1))], None);
    a.label("rs_ok");
    a.insn(
        Opcode::Movl,
        &[R(Reg::new(1)), Label("cur_proc".into())],
        None,
    );
    a.insn(
        Opcode::Movl,
        &[
            Operand::Indexed(Box::new(Label("pcbtab".into())), Reg::new(1)),
            R(Reg::new(0)),
        ],
        None,
    );
    a.insn(Opcode::Mtpr, &[R(Reg::new(0)), Lit(PR_PCBB)], None);
    a.insn(Opcode::Ldpctx, &[], None);
    a.insn(Opcode::Rei, &[], None);

    // ---- software interrupt ISR: small bookkeeping ----
    a.label("softint_isr");
    a.insn(Opcode::Pushr, &[Lit(0b11)], None);
    a.insn(
        Opcode::Movl,
        &[Label("soft_work".into()), R(Reg::new(0))],
        None,
    );
    a.insn(Opcode::Addl2, &[Lit(1), R(Reg::new(0))], None);
    a.insn(
        Opcode::Movl,
        &[R(Reg::new(0)), Label("soft_work".into())],
        None,
    );
    a.insn(Opcode::Bicl2, &[Lit(0), R(Reg::new(1))], None);
    a.insn(Opcode::Popr, &[Lit(0b11)], None);
    a.insn(Opcode::Rei, &[], None);

    // ---- CHMK dispatcher ----
    // Stack on entry: [code][PC][PSL], lowest first.
    a.label("chmk_handler");
    a.insn(
        Opcode::Movl,
        &[Operand::AutoInc(Reg::SP), R(Reg::new(0))],
        None,
    );
    a.insn(Opcode::Caseb, &[R(Reg::new(0)), Lit(0), Lit(2)], None);
    a.case_table(&["svc_null", "svc_queue", "svc_yield"]);
    // Out-of-range service code: return.
    a.insn(Opcode::Rei, &[], None);

    a.label("svc_null");
    a.insn(Opcode::Rei, &[], None);

    a.label("svc_queue");
    a.insn(Opcode::Pushr, &[Lit(0b1110)], None); // R1-R3
    a.insn(Opcode::Mtpr, &[Lit(8), Lit(PR_IPL)], None); // block softints
    a.insn(
        Opcode::Insque,
        &[Label("qnode".into()), Label("qhead".into())],
        None,
    );
    a.insn(
        Opcode::Remque,
        &[Label("qnode".into()), R(Reg::new(3))],
        None,
    );
    a.insn(
        Opcode::Prober,
        &[Lit(0), Lit(4), Label("qhead".into())],
        None,
    );
    a.insn(Opcode::Mtpr, &[Lit(0), Lit(PR_IPL)], None);
    a.insn(Opcode::Popr, &[Lit(0b1110)], None);
    a.insn(Opcode::Rei, &[], None);

    a.label("svc_yield");
    a.insn(Opcode::Svpctx, &[], None);
    a.insn(Opcode::Brb, &[], Some("resched"));

    // ---- machine-check ISR: log the error summary and dismiss ----
    // (Placed after all short branches: these ISRs are entered only
    // through the SCB, so their position cannot stretch a BRB.)
    a.label("mchk_isr");
    a.insn(Opcode::Pushr, &[Lit(0b11)], None);
    a.insn(Opcode::Incl, &[Label("mchk_count".into())], None);
    a.insn(Opcode::Popr, &[Lit(0b11)], None);
    a.insn(Opcode::Rei, &[], None);

    // ---- external-device ISR: acknowledge and dismiss ----
    a.label("device_isr");
    a.insn(Opcode::Pushr, &[Lit(0b11)], None);
    a.insn(Opcode::Incl, &[Label("device_count".into())], None);
    a.insn(Opcode::Popr, &[Lit(0b11)], None);
    a.insn(Opcode::Rei, &[], None);

    // ---- kernel data ----
    a.align(4);
    a.label("tick_count");
    a.long(0);
    a.label("softint_ctr");
    a.long(config.softint_every_ticks);
    a.label("switch_ctr");
    a.long(config.switch_every_ticks);
    a.label("cur_proc");
    a.long(0);
    a.label("soft_work");
    a.long(0);
    a.label("mchk_count");
    a.long(0);
    a.label("device_count");
    a.long(0);
    a.label("nproc");
    a.long(pcb_vas.len() as u32);
    // Self-linked queue head; patched after assembly (the label's own
    // address is only known now).
    a.label("qhead");
    a.long(0);
    a.long(0);
    a.label("qnode");
    a.long(0);
    a.long(0);
    a.label("pcbtab");
    for &pcb in pcb_vas {
        a.long(pcb);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_assembles() {
        let (image, entries) = build(
            0x8000_0200,
            &[0x8000_1000, 0x8000_1200],
            KernelConfig::default(),
        );
        assert_eq!(entries.boot, 0x8000_0200);
        assert!(entries.timer_isr > entries.boot);
        assert!(image.bytes.len() > 100);
        // qhead is self-linked.
        let off = (image.addr_of("qhead") - image.origin) as usize;
        let flink = u32::from_le_bytes(image.bytes[off..off + 4].try_into().unwrap());
        assert_eq!(flink, image.addr_of("qhead"));
    }

    #[test]
    fn size_query_matches_assembled_length() {
        for nproc in [1u32, 6, 40] {
            let pcbs: Vec<u32> = (0..nproc).map(|i| 0x8000_1000 + i * 0x200).collect();
            let asm = program(0x8000_0200, &pcbs, KernelConfig::default());
            let len = asm.assemble().unwrap().bytes.len() as u32;
            assert_eq!(asm.assembled_size(), Ok(len), "{nproc} processes");
        }
    }

    #[test]
    fn pcb_table_contents() {
        let pcbs = [0x8000_1000, 0x8000_1200, 0x8000_1400];
        let (image, _) = build(0x8000_0200, &pcbs, KernelConfig::default());
        let off = (image.addr_of("pcbtab") - image.origin) as usize;
        for (i, &pcb) in pcbs.iter().enumerate() {
            let v = u32::from_le_bytes(
                image.bytes[off + 4 * i..off + 4 * i + 4]
                    .try_into()
                    .unwrap(),
            );
            assert_eq!(v, pcb);
        }
    }
}
