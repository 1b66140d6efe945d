//! The work-claiming loop behind the parallel phase of a round.
//!
//! The execute phase splits its node range into chunks and hands the
//! chunks to [`claim_each`]: workers claim items off a shared atomic cursor
//! until none remain, so a worker that drew cheap chunks keeps going while
//! another grinds through a hub's heavy one. Which worker runs an item is
//! nondeterministic and must stay unobservable — each item writes only its
//! own disjoint slots and per-worker state is reduced in canonical order
//! afterwards (see `docs/PERF.md` §2).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f` exactly once on every item of `items`, spread over one worker
/// per entry of `per_worker`; worker `k` passes `&mut per_worker[k]` to
/// each call it makes.
///
/// Worker 0 runs on the calling thread and `per_worker.len() - 1` scoped
/// threads are spawned for the rest, so a single worker steps the items in
/// order with no thread, lock or atomic at all. A panic in `f` panics the
/// caller with the original payload, not `std::thread::scope`'s generic
/// "a scoped thread panicked".
pub(crate) fn claim_each<S, T, F>(per_worker: &mut [S], items: Vec<T>, f: F)
where
    S: Send,
    T: Send,
    F: Fn(&mut S, T) + Sync,
{
    let (first, rest) = per_worker
        .split_first_mut()
        .expect("claim_each needs at least one worker");
    if rest.is_empty() {
        for item in items {
            f(first, item);
        }
        return;
    }
    // One slot per item, `take`n exactly once by whichever worker's cursor
    // fetch lands on it.
    let slots: Vec<Mutex<Option<T>>> = items
        .into_iter()
        .map(|item| Mutex::new(Some(item)))
        .collect();
    let cursor = AtomicUsize::new(0);
    // `Relaxed` suffices: the cursor only hands out indices, and each
    // slot's mutex publishes its item to the claimant.
    let work = |state: &mut S| {
        while let Some(slot) = slots.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let item = slot
                .lock()
                .expect("an item claim cannot be poisoned")
                .take()
                .expect("the cursor hands each item to exactly one worker");
            f(state, item);
        }
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter_mut()
            .map(|state| {
                let work = &work;
                scope.spawn(move || work(state))
            })
            .collect();
        work(first);
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::claim_each;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn a_spawned_worker_panic_keeps_its_payload() {
        let caller = std::thread::current().id();
        let spawned_claimed = AtomicBool::new(false);
        let payload = std::panic::catch_unwind(|| {
            claim_each(&mut [(); 4], (0..64).collect(), |_, _: u32| {
                if std::thread::current().id() == caller {
                    // Hold the calling worker until a spawned one has
                    // claimed an item, so the panic below surely happens.
                    while !spawned_claimed.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                } else {
                    spawned_claimed.store(true, Ordering::SeqCst);
                    panic!("spawned worker panicked");
                }
            });
        })
        .unwrap_err();
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"spawned worker panicked")
        );
    }
}
