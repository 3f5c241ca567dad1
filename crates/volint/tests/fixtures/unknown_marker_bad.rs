//! Fixture: a `volint::` marker of a kind volint does not know does
//! nothing, so it is reported rather than passed over — a retired kind
//! left behind, and a misspelt waiver that waives nothing.

pub struct Relay;

impl Relay {
    // volint::root(SWITCH)
    pub fn handle_switch(&self, v: Option<u32>) {
        // volint::prune(*) //~ STALE-WAIVER
        self.idle();
        // volint::alow(SWITCH-PANIC): misspelt, so it waives nothing //~ STALE-WAIVER
        let _ = v.unwrap(); //~ SWITCH-PANIC
    }

    pub fn idle(&self) {}
}
