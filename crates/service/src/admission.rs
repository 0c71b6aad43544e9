//! Admission control against a compressed-basis memory budget.
//!
//! Every job's Krylov basis is the dominant allocation of a solve
//! (`(restart + 1)` columns of `rows` values in the chosen storage
//! format). The ledger tracks the bytes reserved by in-flight jobs and
//! refuses — or queues — jobs that would push the total past the
//! configured budget, so a burst of concurrent solves degrades into a
//! typed error or a wait instead of an OOM kill.

use crate::error::ServiceError;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// What to do with a job whose basis reservation does not fit the
/// remaining budget right now.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Fail fast with [`ServiceError::BudgetExceeded`].
    #[default]
    Reject,
    /// Block until enough in-flight jobs finish for the reservation to
    /// fit. A job whose reservation alone exceeds the whole budget is
    /// still rejected — it could never run.
    Queue {
        /// Give up waiting after this long and return the typed
        /// [`ServiceError::AdmissionTimeout`]; `None` waits forever.
        timeout: Option<Duration>,
    },
}

/// The byte ledger: budget, policy, and the bytes currently reserved.
pub(crate) struct Ledger {
    budget: Option<u64>,
    policy: AdmissionPolicy,
    in_use: Mutex<u64>,
    freed: Condvar,
}

impl Ledger {
    pub(crate) fn new(budget: Option<u64>, policy: AdmissionPolicy) -> Self {
        Ledger {
            budget,
            policy,
            in_use: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    /// Bytes currently reserved by in-flight jobs.
    pub(crate) fn in_use(&self) -> u64 {
        *self.in_use.lock().expect("ledger lock")
    }

    /// Reserve `requested` bytes for a job on `operator`, honoring the
    /// policy. The returned guard releases the reservation on drop
    /// (solve completion, success or panic alike).
    pub(crate) fn admit(
        &self,
        operator: &str,
        requested: u64,
    ) -> Result<Reservation<'_>, ServiceError> {
        let Some(budget) = self.budget else {
            // Unlimited: nothing to track.
            return Ok(Reservation {
                ledger: None,
                bytes: 0,
            });
        };
        let mut in_use = self.in_use.lock().expect("ledger lock");
        let start = Instant::now();
        // `in_use` never exceeds the budget, so this cannot underflow.
        while requested > budget - *in_use {
            // A reservation above the whole budget could never fit,
            // whatever drains: queueing it would deadlock.
            let timeout = match self.policy {
                AdmissionPolicy::Queue { timeout } if requested <= budget => timeout,
                _ => {
                    return Err(ServiceError::BudgetExceeded {
                        operator: operator.to_string(),
                        requested,
                        budget,
                        in_use: *in_use,
                    })
                }
            };
            in_use = match timeout.map(|limit| limit.saturating_sub(start.elapsed())) {
                None => self.freed.wait(in_use).expect("ledger lock"),
                Some(remaining) if !remaining.is_zero() => {
                    let waited = self.freed.wait_timeout(in_use, remaining);
                    waited.expect("ledger lock").0
                }
                Some(_) => {
                    return Err(ServiceError::AdmissionTimeout {
                        operator: operator.to_string(),
                        requested,
                        budget,
                        in_use: *in_use,
                        waited_ms: start.elapsed().as_millis() as u64,
                    })
                }
            };
        }
        *in_use += requested;
        Ok(Reservation {
            ledger: Some(self),
            bytes: requested,
        })
    }
}

/// RAII reservation: holds `bytes` of the budget until dropped.
pub(crate) struct Reservation<'a> {
    ledger: Option<&'a Ledger>,
    bytes: u64,
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        if let Some(ledger) = self.ledger {
            // A panic here while another unwinds would abort the process,
            // and each update of the count leaves it valid.
            let mut in_use = ledger.in_use.lock().unwrap_or_else(PoisonError::into_inner);
            *in_use = in_use.saturating_sub(self.bytes);
            drop(in_use);
            ledger.freed.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_ledger_admits_everything() {
        let ledger = Ledger::new(None, AdmissionPolicy::Reject);
        let _a = ledger.admit("x", u64::MAX).unwrap();
        let _b = ledger.admit("y", u64::MAX).unwrap();
        assert_eq!(ledger.in_use(), 0);
    }

    #[test]
    fn reject_policy_fails_fast_and_frees_on_drop() {
        let ledger = Ledger::new(Some(1000), AdmissionPolicy::Reject);
        let a = ledger.admit("a", 700).unwrap();
        assert_eq!(ledger.in_use(), 700);
        let denied = ledger.admit("b", 400).err().unwrap();
        assert!(matches!(
            denied,
            ServiceError::BudgetExceeded {
                requested: 400,
                budget: 1000,
                in_use: 700,
                ..
            }
        ));
        drop(a);
        assert_eq!(ledger.in_use(), 0);
        let _b = ledger.admit("b", 400).unwrap();
    }

    #[test]
    fn oversized_request_is_rejected_even_when_queueing() {
        let ledger = Ledger::new(Some(100), AdmissionPolicy::Queue { timeout: None });
        assert!(matches!(
            ledger.admit("huge", 101),
            Err(ServiceError::BudgetExceeded { requested: 101, .. })
        ));
    }

    /// The fit test must not overflow: a request that fits the budget
    /// but not beside a held reservation is refused, not wrapped into
    /// an admission, and one above the budget is refused when queueing.
    #[test]
    fn a_request_near_u64_max_beside_a_reservation_is_refused() {
        let ledger = Ledger::new(Some(u64::MAX - 1), AdmissionPolicy::Reject);
        let _held = ledger.admit("a", 10).unwrap();
        assert!(matches!(
            ledger.admit("b", u64::MAX - 5),
            Err(ServiceError::BudgetExceeded { in_use: 10, .. })
        ));
        let queue = AdmissionPolicy::Queue { timeout: None };
        let ledger = Ledger::new(Some(u64::MAX - 1), queue);
        let _held = ledger.admit("a", 10).unwrap();
        assert!(matches!(
            ledger.admit("huge", u64::MAX),
            Err(ServiceError::BudgetExceeded { in_use: 10, .. })
        ));
    }

    /// Releasing a reservation must not panic on a poisoned ledger: a
    /// panic in `drop` while the holder's thread unwinds aborts the
    /// process.
    #[test]
    fn a_poisoned_ledger_still_frees_reservations() {
        let ledger = Ledger::new(Some(100), AdmissionPolicy::Reject);
        let held = ledger.admit("a", 10).unwrap();
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = ledger.in_use.lock();
                panic!("poison the ledger");
            })
            .join()
        });
        assert!(poisoner.is_err() && ledger.in_use.is_poisoned());
        drop(held);
        let in_use = *ledger.in_use.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(in_use, 0);
    }

    #[test]
    fn queue_policy_waits_for_the_budget_to_drain() {
        use std::sync::Arc;
        let ledger = Arc::new(Ledger::new(
            Some(100),
            AdmissionPolicy::Queue { timeout: None },
        ));
        let first = ledger.admit("a", 80).unwrap();
        let waiter = {
            let ledger = Arc::clone(&ledger);
            std::thread::spawn(move || {
                // Blocks until `first` drops, then succeeds.
                let r = ledger.admit("b", 80).unwrap();
                drop(r);
            })
        };
        // Give the waiter time to reach the condvar, then release.
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(first);
        waiter.join().unwrap();
        assert_eq!(ledger.in_use(), 0);
    }

    #[test]
    fn queue_timeout_surfaces_as_typed_admission_timeout() {
        let ledger = Ledger::new(
            Some(100),
            AdmissionPolicy::Queue {
                timeout: Some(Duration::from_millis(30)),
            },
        );
        let held = ledger.admit("a", 80).unwrap();
        let start = Instant::now();
        let denied = ledger.admit("b", 80).err().expect("must time out");
        assert!(
            start.elapsed() >= Duration::from_millis(30),
            "must actually wait out the timeout"
        );
        assert!(matches!(
            denied,
            ServiceError::AdmissionTimeout {
                requested: 80,
                budget: 100,
                in_use: 80,
                ..
            }
        ));
        // The timed-out job reserved nothing; capacity still drains.
        drop(held);
        assert_eq!(ledger.in_use(), 0);
        let _b = ledger.admit("b", 80).unwrap();
    }

    #[test]
    fn queue_timeout_admits_when_capacity_frees_in_time() {
        use std::sync::Arc;
        let ledger = Arc::new(Ledger::new(
            Some(100),
            AdmissionPolicy::Queue {
                timeout: Some(Duration::from_secs(10)),
            },
        ));
        let first = ledger.admit("a", 80).unwrap();
        let waiter = {
            let ledger = Arc::clone(&ledger);
            std::thread::spawn(move || ledger.admit("b", 80).map(drop))
        };
        std::thread::sleep(Duration::from_millis(50));
        drop(first);
        waiter.join().unwrap().unwrap();
        assert_eq!(ledger.in_use(), 0);
    }
}
