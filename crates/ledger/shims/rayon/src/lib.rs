//! Std-only stand-in for `rayon`: indexed parallel iterators (slices,
//! chunks, ranges, vectors; `zip`, `enumerate`, `map`; `for_each`,
//! `collect`, `sum`) run on scoped threads.
//!
//! Every source the workspace parallelises is indexed, so one trait that
//! can report its length and split at an index is enough. The policy is
//! fixed and keeps no state between calls: a call over two or more items
//! cuts its input into a few pieces per thread and spawns scoped workers
//! (the caller is one) that pull pieces from a shared queue, which
//! balances uneven pieces without work stealing; a call over fewer items
//! runs on the calling thread. There is no persistent pool, so every
//! parallel call pays a thread spawn and join (tens of microseconds)
//! where the published crate pays a wake-up: numbers from a build
//! against this stand-in are not comparable with a registry build.

use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

/// Worker threads a parallel call uses: `RAYON_NUM_THREADS` if set to a
/// positive number, else the machine's available parallelism.
pub fn current_num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|n| *n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Pieces per thread a call is cut into, so a slow piece does not leave
/// the other workers idle for long.
const PIECES_PER_THREAD: usize = 4;

/// Cut `iter` into at most `pieces` contiguous parts, in order.
fn cut<I: ParallelIterator>(iter: I, pieces: usize) -> Vec<I> {
    let mut out = Vec::with_capacity(pieces);
    let mut rest = iter;
    for remaining in (2..=pieces).rev() {
        let len = rest.len();
        let take = len.div_ceil(remaining);
        if take == 0 || take >= len {
            break;
        }
        let (head, tail) = rest.split_at(take);
        out.push(head);
        rest = tail;
    }
    out.push(rest);
    out
}

/// Run `work` over `iter` in pieces, on `min(threads, items)` threads;
/// results come back in piece order. A panic in a worker propagates to
/// the caller.
fn run<I, R, W>(iter: I, work: W) -> Vec<R>
where
    I: ParallelIterator,
    R: Send,
    W: Fn(I) -> R + Sync,
{
    let threads = current_num_threads().min(iter.len());
    if threads <= 1 {
        return vec![work(iter)];
    }
    let pieces = cut(iter, threads * PIECES_PER_THREAD);
    let n = pieces.len();
    let queue = Mutex::new(pieces.into_iter().enumerate().rev().collect::<Vec<_>>());
    let worker = || {
        let mut done = Vec::new();
        loop {
            let next = queue
                .lock()
                .expect("a worker panicked while taking a piece")
                .pop();
            let Some((idx, piece)) = next else {
                return done;
            };
            done.push((idx, work(piece)));
        }
    };
    let mut results: Vec<(usize, R)> = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..threads).map(|_| s.spawn(worker)).collect();
        results.extend(worker());
        for h in handles {
            match h.join() {
                Ok(done) => results.extend(done),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    results.sort_by_key(|(idx, _)| *idx);
    results.into_iter().map(|(_, r)| r).collect()
}

/// An indexed parallel iterator: knows its length and can split.
pub trait ParallelIterator: Sized + Send {
    /// Element type.
    type Item: Send;
    /// Sequential iterator over one piece.
    type Seq: Iterator<Item = Self::Item>;

    /// Number of items.
    fn len(&self) -> usize;
    /// Whether there are no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The first `mid` items and the rest.
    fn split_at(self, mid: usize) -> (Self, Self);
    /// Iterate this piece on the current thread.
    fn into_seq(self) -> Self::Seq;

    /// Pair each item with its index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate {
            base: self,
            offset: 0,
        }
    }
    /// Pair items with those of `other`; the shorter side sets the length.
    fn zip<Z: IntoParallelIterator>(self, other: Z) -> Zip<Self, Z::Iter> {
        Zip {
            a: self,
            b: other.into_par_iter(),
        }
    }
    /// Transform each item.
    fn map<R: Send, F: Fn(Self::Item) -> R + Send + Sync>(self, f: F) -> Map<Self, F> {
        Map {
            base: self,
            f: Arc::new(f),
        }
    }
    /// Call `f` on every item.
    fn for_each<F: Fn(Self::Item) + Send + Sync>(self, f: F) {
        run(self, |piece| piece.into_seq().for_each(&f));
    }
    /// Collect the items, in order, into `C`.
    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        run(self, |piece| piece.into_seq().collect::<Vec<_>>())
            .into_iter()
            .flatten()
            .collect()
    }
    /// Sum the items (piece sums are added in piece order).
    fn sum<S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>>(self) -> S {
        run(self, |piece| piece.into_seq().sum::<S>())
            .into_iter()
            .sum()
    }
}

/// Marker kept for source compatibility: every iterator here is indexed.
pub trait IndexedParallelIterator: ParallelIterator {}
impl<I: ParallelIterator> IndexedParallelIterator for I {}

/// Conversion into a parallel iterator.
pub trait IntoParallelIterator {
    /// The iterator produced.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Element type.
    type Item: Send;
    /// Convert.
    fn into_par_iter(self) -> Self::Iter;
}

impl<I: ParallelIterator> IntoParallelIterator for I {
    type Iter = I;
    type Item = I::Item;
    fn into_par_iter(self) -> I {
        self
    }
}

/// `(&collection).par_iter()`.
pub trait IntoParallelRefIterator<'a> {
    /// The iterator produced.
    type Iter: ParallelIterator;
    /// Borrowing parallel iterator.
    fn par_iter(&'a self) -> Self::Iter;
}
impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Iter = SliceIter<'a, T>;
    fn par_iter(&'a self) -> SliceIter<'a, T> {
        SliceIter(self)
    }
}
impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Iter = SliceIter<'a, T>;
    fn par_iter(&'a self) -> SliceIter<'a, T> {
        SliceIter(self)
    }
}

/// `(&mut collection).par_iter_mut()`.
pub trait IntoParallelRefMutIterator<'a> {
    /// The iterator produced.
    type Iter: ParallelIterator;
    /// Mutably borrowing parallel iterator.
    fn par_iter_mut(&'a mut self) -> Self::Iter;
}
impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Iter = SliceIterMut<'a, T>;
    fn par_iter_mut(&'a mut self) -> SliceIterMut<'a, T> {
        SliceIterMut(self)
    }
}
impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Iter = SliceIterMut<'a, T>;
    fn par_iter_mut(&'a mut self) -> SliceIterMut<'a, T> {
        SliceIterMut(self)
    }
}

/// `slice.par_chunks(n)`.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `size`-element chunks (the last may be short).
    fn par_chunks(&self, size: usize) -> Chunks<'_, T>;
}
impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, size: usize) -> Chunks<'_, T> {
        assert!(size != 0, "chunk size must be non-zero");
        Chunks { slice: self, size }
    }
}

/// `slice.par_chunks_mut(n)`.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over mutable `size`-element chunks.
    fn par_chunks_mut(&mut self, size: usize) -> ChunksMut<'_, T>;
}
impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ChunksMut<'_, T> {
        assert!(size != 0, "chunk size must be non-zero");
        ChunksMut { slice: self, size }
    }
}

/// Parallel `&[T]` iterator.
pub struct SliceIter<'a, T>(&'a [T]);
impl<'a, T: Sync> ParallelIterator for SliceIter<'a, T> {
    type Item = &'a T;
    type Seq = std::slice::Iter<'a, T>;
    fn len(&self) -> usize {
        self.0.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.0.split_at(mid);
        (SliceIter(a), SliceIter(b))
    }
    fn into_seq(self) -> Self::Seq {
        self.0.iter()
    }
}

/// Parallel `&mut [T]` iterator.
pub struct SliceIterMut<'a, T>(&'a mut [T]);
impl<'a, T: Send> ParallelIterator for SliceIterMut<'a, T> {
    type Item = &'a mut T;
    type Seq = std::slice::IterMut<'a, T>;
    fn len(&self) -> usize {
        self.0.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.0.split_at_mut(mid);
        (SliceIterMut(a), SliceIterMut(b))
    }
    fn into_seq(self) -> Self::Seq {
        self.0.iter_mut()
    }
}

/// Parallel chunk iterator.
pub struct Chunks<'a, T> {
    slice: &'a [T],
    size: usize,
}
impl<'a, T: Sync> ParallelIterator for Chunks<'a, T> {
    type Item = &'a [T];
    type Seq = std::slice::Chunks<'a, T>;
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at((mid * self.size).min(self.slice.len()));
        (
            Chunks {
                slice: a,
                size: self.size,
            },
            Chunks {
                slice: b,
                size: self.size,
            },
        )
    }
    fn into_seq(self) -> Self::Seq {
        self.slice.chunks(self.size)
    }
}

/// Parallel mutable chunk iterator.
pub struct ChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}
impl<'a, T: Send> ParallelIterator for ChunksMut<'a, T> {
    type Item = &'a mut [T];
    type Seq = std::slice::ChunksMut<'a, T>;
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let at = (mid * self.size).min(self.slice.len());
        let (a, b) = self.slice.split_at_mut(at);
        (
            ChunksMut {
                slice: a,
                size: self.size,
            },
            ChunksMut {
                slice: b,
                size: self.size,
            },
        )
    }
    fn into_seq(self) -> Self::Seq {
        self.slice.chunks_mut(self.size)
    }
}

/// Parallel iterator over an integer range.
pub struct RangeIter<T>(Range<T>);
macro_rules! range_impls {
    ($($t:ty),*) => {$(
        impl ParallelIterator for RangeIter<$t> {
            type Item = $t;
            type Seq = Range<$t>;
            fn len(&self) -> usize {
                self.0.end.saturating_sub(self.0.start) as usize
            }
            fn split_at(self, mid: usize) -> (Self, Self) {
                let at = self.0.start + mid as $t;
                (RangeIter(self.0.start..at), RangeIter(at..self.0.end))
            }
            fn into_seq(self) -> Range<$t> {
                self.0
            }
        }
        impl IntoParallelIterator for Range<$t> {
            type Iter = RangeIter<$t>;
            type Item = $t;
            fn into_par_iter(self) -> RangeIter<$t> {
                RangeIter(self)
            }
        }
    )*};
}
range_impls!(usize, u32, u64);

/// Parallel iterator that owns a vector.
pub struct VecIter<T>(Vec<T>);
impl<T: Send> ParallelIterator for VecIter<T> {
    type Item = T;
    type Seq = std::vec::IntoIter<T>;
    fn len(&self) -> usize {
        self.0.len()
    }
    fn split_at(mut self, mid: usize) -> (Self, Self) {
        let tail = self.0.split_off(mid);
        (self, VecIter(tail))
    }
    fn into_seq(self) -> Self::Seq {
        self.0.into_iter()
    }
}
impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = VecIter<T>;
    type Item = T;
    fn into_par_iter(self) -> VecIter<T> {
        VecIter(self)
    }
}
impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Iter = SliceIter<'a, T>;
    type Item = &'a T;
    fn into_par_iter(self) -> SliceIter<'a, T> {
        SliceIter(self)
    }
}
impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Iter = SliceIter<'a, T>;
    type Item = &'a T;
    fn into_par_iter(self) -> SliceIter<'a, T> {
        SliceIter(self)
    }
}
impl<'a, T: Send> IntoParallelIterator for &'a mut [T] {
    type Iter = SliceIterMut<'a, T>;
    type Item = &'a mut T;
    fn into_par_iter(self) -> SliceIterMut<'a, T> {
        SliceIterMut(self)
    }
}
impl<'a, T: Send> IntoParallelIterator for &'a mut Vec<T> {
    type Iter = SliceIterMut<'a, T>;
    type Item = &'a mut T;
    fn into_par_iter(self) -> SliceIterMut<'a, T> {
        SliceIterMut(self)
    }
}

/// See [`ParallelIterator::enumerate`].
pub struct Enumerate<I> {
    base: I,
    offset: usize,
}
impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);
    type Seq = std::iter::Zip<Range<usize>, I::Seq>;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(mid);
        (
            Enumerate {
                base: a,
                offset: self.offset,
            },
            Enumerate {
                base: b,
                offset: self.offset + mid,
            },
        )
    }
    fn into_seq(self) -> Self::Seq {
        let end = self.offset + self.base.len();
        (self.offset..end).zip(self.base.into_seq())
    }
}

/// See [`ParallelIterator::zip`].
pub struct Zip<A, B> {
    a: A,
    b: B,
}
impl<A: ParallelIterator, B: ParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);
    type Seq = std::iter::Zip<A::Seq, B::Seq>;
    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a1, a2) = self.a.split_at(mid);
        let (b1, b2) = self.b.split_at(mid);
        (Zip { a: a1, b: b1 }, Zip { a: a2, b: b2 })
    }
    fn into_seq(self) -> Self::Seq {
        self.a.into_seq().zip(self.b.into_seq())
    }
}

/// See [`ParallelIterator::map`].
pub struct Map<I, F> {
    base: I,
    f: Arc<F>,
}

/// Sequential side of [`Map`].
pub struct MapSeq<S, F> {
    base: S,
    f: Arc<F>,
}
impl<S: Iterator, R, F: Fn(S::Item) -> R> Iterator for MapSeq<S, F> {
    type Item = R;
    fn next(&mut self) -> Option<R> {
        self.base.next().map(|x| (self.f)(x))
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.base.size_hint()
    }
}
impl<I: ParallelIterator, R: Send, F: Fn(I::Item) -> R + Send + Sync> ParallelIterator
    for Map<I, F>
{
    type Item = R;
    type Seq = MapSeq<I::Seq, F>;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(mid);
        (
            Map {
                base: a,
                f: Arc::clone(&self.f),
            },
            Map { base: b, f: self.f },
        )
    }
    fn into_seq(self) -> Self::Seq {
        MapSeq {
            base: self.base.into_seq(),
            f: self.f,
        }
    }
}

/// The traits a `use rayon::prelude::*` brings in.
pub mod prelude {
    pub use crate::{
        IndexedParallelIterator, IntoParallelIterator, IntoParallelRefIterator,
        IntoParallelRefMutIterator, ParallelIterator, ParallelSlice, ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn collect_keeps_order_and_zip_enumerate_line_up() {
        let v: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..1000).map(|i| i * 2).collect::<Vec<_>>());

        let mut a = vec![0u32; 103];
        let mut b = vec![0u32; 103 * 3];
        a.par_iter_mut()
            .zip(b.par_chunks_mut(3))
            .enumerate()
            .for_each(|(i, (x, chunk))| {
                *x = i as u32;
                chunk.fill(i as u32);
            });
        assert!(a.iter().enumerate().all(|(i, x)| *x == i as u32));
        assert!(b
            .chunks(3)
            .enumerate()
            .all(|(i, c)| c.iter().all(|x| *x == i as u32)));

        let r: Result<Vec<u32>, String> = a
            .par_iter()
            .map(|x| {
                if *x == 50 {
                    Err("fifty".to_string())
                } else {
                    Ok(*x)
                }
            })
            .collect();
        assert_eq!(r, Err("fifty".to_string()));
        assert_eq!((0..10u64).into_par_iter().sum::<u64>(), 45);
    }
}
