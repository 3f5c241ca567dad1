// Known-bad fixture: fault-injection hooks inside the mode-switch
// critical section.  The switch path must be fault-free (DESIGN.md
// §12): a campaign that can wedge `run_transition` or the phase
// bodies wedges the very mechanism meant to answer the fault.

impl Mercury {
    fn run_transition(&self, cpu: &Arc<Cpu>, target: ExecMode) -> Result<u64, SwitchError> { //~ FAULT-MASK
        // Injected hypercall penalties inside the switch would skew the
        // §7.4 latency numbers and can recurse into the watchdog.
        let penalty = faultgen::hypercall_site!(cpu.id, cpu.cycles());
        cpu.tick(penalty);
        self.rendezvous.begin()?;
        Ok(cpu.cycles())
    }

    fn reload_and_return(&self, cpu: &Arc<Cpu>, target: ExecMode) { //~ FAULT-MASK
        // A corrupted-gate hook in the reload path could swallow the
        // very trap-table install that repairs corrupted gates.
        if faultgen::gate_site!(cpu.id, cpu.cycles(), 32) {
            return;
        }
        self.install_tables(cpu, target);
    }

    fn close_round(&self, cpu: &Arc<Cpu>) {
        // Clean: no injection hooks in the critical section.
        self.rendezvous.close(cpu);
    }
}
