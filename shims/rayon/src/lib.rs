//! Offline stand-in for `rayon`.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the slice of rayon's API it uses. Two different fidelity
//! levels, deliberately:
//!
//! * **Data-parallel iterators** (`par_iter`, `par_iter_mut`,
//!   `into_par_iter`) run *sequentially*. Every algorithm
//!   in this repository is deterministic and order-insensitive over these
//!   loops, so sequential execution is semantically identical — only
//!   wall-clock parallelism is lost, which the simulation's modeled times
//!   never depend on.
//! * **`scope`/`spawn`** use real OS threads (`std::thread::scope`),
//!   because the asynchronous BC implementation genuinely needs
//!   concurrent workers stealing from a shared deque.
//!
//! [`SeqIter`] implements [`Iterator`] and adds inherent shims for the
//! rayon-style combinators used here (`map` keeps the wrapper type so
//! later combinators in the chain resolve on it too).

/// Sequential stand-in for a rayon parallel iterator.
///
/// Implements [`Iterator`] by delegation, so the whole std adapter
/// ecosystem works; inherent methods shadow the few rayon-specific
/// signatures.
pub struct SeqIter<I>(pub I);

impl<I: Iterator> Iterator for SeqIter<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        self.0.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl<I: Iterator> SeqIter<I> {
    /// rayon-flavored `map` — keeps the [`SeqIter`] wrapper so rayon-only
    /// combinators further down the chain still resolve.
    #[allow(clippy::should_implement_trait)]
    pub fn map<F, O>(self, f: F) -> SeqIter<std::iter::Map<I, F>>
    where
        F: FnMut(I::Item) -> O,
    {
        SeqIter(self.0.map(f))
    }

    /// rayon-flavored `filter`.
    pub fn filter<F>(self, f: F) -> SeqIter<std::iter::Filter<I, F>>
    where
        F: FnMut(&I::Item) -> bool,
    {
        SeqIter(self.0.filter(f))
    }

    /// rayon-flavored `enumerate`.
    pub fn enumerate(self) -> SeqIter<std::iter::Enumerate<I>> {
        SeqIter(self.0.enumerate())
    }

    /// rayon-flavored `zip`.
    pub fn zip<J: IntoIterator>(self, other: J) -> SeqIter<std::iter::Zip<I, J::IntoIter>> {
        SeqIter(self.0.zip(other))
    }
}

/// The rayon prelude: the traits that hang `par_*` methods on std types.
pub mod prelude {
    pub use super::SeqIter;

    /// `into_par_iter()` for owned collections and ranges.
    pub trait IntoParallelIterator: IntoIterator + Sized {
        /// Sequential stand-in for rayon's parallel conversion.
        fn into_par_iter(self) -> SeqIter<Self::IntoIter> {
            SeqIter(self.into_iter())
        }
    }

    impl<T: IntoIterator + Sized> IntoParallelIterator for T {}

    /// `par_iter()` on slices.
    pub trait ParallelSlice<T> {
        /// Shared parallel iteration (sequential here).
        fn par_iter(&self) -> SeqIter<std::slice::Iter<'_, T>>;
    }

    impl<T> ParallelSlice<T> for [T] {
        fn par_iter(&self) -> SeqIter<std::slice::Iter<'_, T>> {
            SeqIter(self.iter())
        }
    }

    /// `par_iter_mut()` on slices.
    pub trait ParallelSliceMut<T> {
        /// Exclusive parallel iteration (sequential here).
        fn par_iter_mut(&mut self) -> SeqIter<std::slice::IterMut<'_, T>>;
    }

    impl<T> ParallelSliceMut<T> for [T] {
        fn par_iter_mut(&mut self) -> SeqIter<std::slice::IterMut<'_, T>> {
            SeqIter(self.iter_mut())
        }
    }
}

/// Number of worker threads rayon would use: the machine's parallelism.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A scope handle mirroring `rayon::Scope`: `spawn` takes a closure that
/// itself receives the scope (so tasks can spawn subtasks).
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task on a real OS thread inside the scope.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        let inner = self.inner;
        inner.spawn(move || {
            let scope = Scope { inner };
            f(&scope)
        });
    }
}

/// Structured concurrency matching `rayon::scope`, backed by
/// `std::thread::scope` (all spawned tasks join before `scope` returns).
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    std::thread::scope(|s| {
        let wrapper = Scope { inner: s };
        f(&wrapper)
    })
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_iter_behaves_like_iter() {
        let v = [1, 2, 3, 4];
        let doubled: Vec<i32> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
        let s: i32 = (0..5usize).into_par_iter().map(|x| x as i32).sum();
        assert_eq!(s, 10);
    }

    #[test]
    fn par_iter_mut_and_zip() {
        let mut a = vec![1, 2, 3];
        let mut b = [10, 20, 30];
        a.par_iter_mut()
            .zip(b.par_iter_mut())
            .enumerate()
            .for_each(|(i, (x, y))| {
                *x += *y + i as i32;
            });
        assert_eq!(a, vec![11, 23, 35]);
    }

    #[test]
    fn scope_runs_spawned_tasks_to_completion() {
        let counter = AtomicUsize::new(0);
        super::scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn nested_spawn() {
        let counter = AtomicUsize::new(0);
        super::scope(|s| {
            s.spawn(|s2| {
                counter.fetch_add(1, Ordering::Relaxed);
                s2.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }
}
