//! Stand-in for `rayon`, written for the benchmark because the sandbox has
//! no crates.io mirror.
//!
//! The two parallel-iterator entry points the vdx crates use return the
//! standard sequential iterators, so the work runs on the calling thread.
//! That is the load model the sim workloads state (one thread); results are
//! identical by the crates' own contract (`parallel` changes speed only).

/// `use rayon::prelude::*` brings the entry points into scope.
pub mod prelude {
    /// `par_iter` on slices and anything that derefs to one.
    pub trait ParallelSlice<T> {
        /// The elements, in order.
        fn par_iter(&self) -> std::slice::Iter<'_, T>;
    }

    impl<T> ParallelSlice<T> for [T] {
        fn par_iter(&self) -> std::slice::Iter<'_, T> {
            self.iter()
        }
    }

    /// `par_chunks_mut` on mutable slices.
    pub trait ParallelSliceMut<T> {
        /// Non-overlapping chunks of `size` elements, in order.
        fn par_chunks_mut(&mut self, size: usize) -> std::slice::ChunksMut<'_, T>;
    }

    impl<T> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, size: usize) -> std::slice::ChunksMut<'_, T> {
            self.chunks_mut(size)
        }
    }
}
