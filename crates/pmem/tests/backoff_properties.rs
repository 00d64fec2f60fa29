//! Property tests for the online device-fault retry discipline: the
//! exponential backoff is bounded by the shift cap, and seeded random
//! schedules are fully deterministic.

use proptest::prelude::*;

use sw_pmem::{
    DeviceFault, DeviceFaultClass, DeviceFaultSchedule, DeviceFaultUnit, FaultTrigger,
    WriteDecision, BACKOFF_SHIFT_CAP,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every retry wait the unit hands out is bounded by
    /// `backoff_base << BACKOFF_SHIFT_CAP`, no matter how many failed
    /// attempts a sticky line accumulates before escalation retires it.
    #[test]
    fn backoff_bounded_by_shift_cap(
        backoff_base in 1u64..4096,
        max_retries in 2u32..40,
        escalate_after in 2u32..40,
    ) {
        let mut s = DeviceFaultSchedule::none();
        s.backoff_base = backoff_base;
        s.max_retries = max_retries;
        s.escalate_after = escalate_after;
        s.faults.push(DeviceFault {
            class: DeviceFaultClass::TransientWriteFail,
            trigger: FaultTrigger::OnLine(7),
            sticky: true,
        });
        let cap = backoff_base << BACKOFF_SHIFT_CAP;
        let mut unit = DeviceFaultUnit::new(s);
        let mut now = 0u64;
        let mut closed = false;
        for _ in 0..200 {
            match unit.on_write(7, now) {
                WriteDecision::Fail { next_at, .. } => {
                    prop_assert!(
                        next_at - now <= cap,
                        "backoff {} exceeds cap {}",
                        next_at - now,
                        cap
                    );
                    now = next_at;
                }
                WriteDecision::Backoff { until } => {
                    prop_assert!(until - now <= cap);
                    now = until;
                }
                WriteDecision::Proceed { .. } | WriteDecision::RemapExhausted { .. } => {
                    closed = true;
                    break;
                }
            }
        }
        // The wear-out path must converge (escalate to a remap) instead
        // of retrying forever.
        prop_assert!(closed, "sticky line never escalated");
    }

    /// Two units built from the same random seed make identical
    /// decisions for an identical access sequence — the determinism the
    /// chaos campaign's reproducers rely on.
    #[test]
    fn random_schedule_deterministic_per_seed(seed in 0u64..1 << 48, scale in 16u64..512) {
        let a = DeviceFaultSchedule::random(seed, scale);
        let b = DeviceFaultSchedule::random(seed, scale);
        prop_assert_eq!(&a, &b);
        let mut ua = DeviceFaultUnit::new(a);
        let mut ub = DeviceFaultUnit::new(b);
        for i in 0..scale {
            let line = i % 32;
            prop_assert_eq!(ua.on_write(line, i * 10), ub.on_write(line, i * 10));
            prop_assert_eq!(ua.on_read(line, i * 10 + 5), ub.on_read(line, i * 10 + 5));
        }
        prop_assert_eq!(ua.stats(), ub.stats());
    }
}
