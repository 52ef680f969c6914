//! Cooperative cancellation for in-flight inference.
//!
//! A [`CancelToken`] rides in an [`crate::engine::InferRequest`] to
//! [`crate::engine::CompiledModel::try_serve`] and is checked at every
//! operator boundary. Cancellation is *cooperative*: an operator that
//! has started runs to completion, so a request aborts within one
//! operator's latency of the signal. Aborting between operators cannot
//! poison engine scratch state — every operator fully overwrites its
//! output region (padding margins are pre-zeroed at allocation and never
//! touched), so the next complete run through the same
//! [`crate::engine::InferenceContext`] is bit-identical to a fresh one.
//!
//! The token is two signals in one:
//!
//! * a **deadline** (absolute [`Instant`]) — crossing it surfaces as
//!   [`BitFlowError::DeadlineExceeded`];
//! * a **manual flag** (caller called [`CancelToken::cancel`], e.g. the
//!   client disconnected) — surfaces as [`BitFlowError::Cancelled`].
//!
//! [`CancelToken::none`] is the never-cancelled token the plain
//! `try_infer` path uses: no allocation, and each checkpoint is a single
//! branch on a `None`.

use crate::error::BitFlowError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared cancellation state. Cloning the token clones the `Arc`, so any
/// clone can cancel and every holder observes it.
#[derive(Debug)]
struct CancelInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A cooperative cancellation token checked at operator boundaries.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Option<Arc<CancelInner>>,
}

impl CancelToken {
    /// The never-cancelled token: checkpoints cost one branch, no
    /// allocation, no clock read.
    #[must_use]
    pub const fn none() -> Self {
        Self { inner: None }
    }

    /// A manually-cancellable token with no deadline.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            })),
        }
    }

    /// A token that expires at the absolute instant `deadline` (and can
    /// also be cancelled manually).
    #[must_use]
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            inner: Some(Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            })),
        }
    }

    /// A token that expires `budget` from now.
    #[must_use]
    pub fn with_budget(budget: Duration) -> Self {
        Self::with_deadline(Instant::now() + budget)
    }

    /// Signals cancellation. Idempotent; a no-op on [`CancelToken::none`].
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Release);
        }
    }

    /// Whether [`CancelToken::cancel`] has been called (deadline expiry is
    /// *not* reported here — it is a property of the clock, not a flag).
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.cancelled.load(Ordering::Acquire))
    }

    /// The absolute deadline, if one was set.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.as_ref().and_then(|i| i.deadline)
    }

    /// Whether the deadline (if any) has already passed.
    #[must_use]
    pub fn deadline_passed(&self) -> bool {
        self.deadline().is_some_and(|d| Instant::now() >= d)
    }

    /// The checkpoint the engine runs between operators: `Err(Cancelled)`
    /// if the manual flag is set, `Err(DeadlineExceeded)` if the deadline
    /// has passed, `Ok(())` otherwise. Manual cancellation wins when both
    /// hold — it is the more specific signal.
    #[inline]
    pub fn check(&self) -> Result<(), BitFlowError> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if inner.cancelled.load(Ordering::Acquire) {
            return Err(BitFlowError::Cancelled);
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                return Err(BitFlowError::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_cancels() {
        let t = CancelToken::none();
        assert!(t.check().is_ok());
        t.cancel(); // no-op
        assert!(t.check().is_ok());
        assert!(!t.is_cancelled());
        assert!(t.deadline().is_none());
    }

    #[test]
    fn manual_cancel_propagates_to_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(clone.check().is_ok());
        t.cancel();
        assert!(clone.is_cancelled());
        assert!(matches!(clone.check(), Err(BitFlowError::Cancelled)));
    }

    #[test]
    fn past_deadline_is_exceeded() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.deadline_passed());
        assert!(matches!(t.check(), Err(BitFlowError::DeadlineExceeded)));
    }

    #[test]
    fn future_deadline_passes_and_manual_wins() {
        let t = CancelToken::with_budget(Duration::from_secs(3600));
        assert!(t.check().is_ok());
        t.cancel();
        // Manual cancellation is reported even though the deadline holds.
        assert!(matches!(t.check(), Err(BitFlowError::Cancelled)));
    }
}
