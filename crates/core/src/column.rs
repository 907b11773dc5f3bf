//! The column-bank skeleton every controller kind is built on.
//!
//! A bank stores one kind's per-ant state as flat columns — one `Vec`
//! per field, each ant's entry `1` or `k` (the task count) elements
//! wide — next to the kind's bank constants (parameters and derived
//! samplers). [`column_bank!`] generates, from that column list, the
//! owned bank and its splittable `SliceMut` chunk with everything the
//! kinds share: `len`, `split_at_mut`, `swap_remove`, in-place rebuild
//! (`reinit`'s core), fresh-slot push and the one-slot slice.
//! [`drive!`] is the one fused stepping loop: it owns the shared/per-ant
//! [`antalloc_noise::SensedRound`] split and the
//! [`antalloc_env::ColumnWriter`] writes, and takes the kind's per-ant
//! step as a closure. A kind's file then holds only its columns, its
//! `step_one`, and its conversions to and from the per-ant reference
//! controller.

use antalloc_env::Assignment;

/// `assignment`/`currentTask` encoding: task index, or `IDLE`. By
/// construction identical to [`Assignment::RAW_IDLE`], so bank columns
/// write into the engine's fused [`antalloc_env::TaskColumn`] without
/// re-encoding.
pub(crate) const IDLE: u32 = Assignment::RAW_IDLE;

#[inline(always)]
pub(crate) fn enc(a: Assignment) -> u32 {
    a.to_raw()
}

#[inline(always)]
pub(crate) fn dec(x: u32) -> Assignment {
    Assignment::from_raw(x)
}

/// Clears and refills a column with `n` copies of `value`, reusing the
/// allocation when it suffices (shrink keeps capacity, grow
/// reallocates).
pub(crate) fn refill<T: Copy>(column: &mut Vec<T>, value: T, n: usize) {
    column.clear();
    column.resize(n, value);
}

/// Swap-removes the `width`-element row at `slot`: the last row moves
/// into `slot` and the column shrinks by one row.
pub(crate) fn swap_remove_row<T: Copy>(column: &mut Vec<T>, slot: usize, width: usize) {
    let last = column.len() / width - 1;
    if slot != last {
        let (head, tail) = column.split_at_mut(last * width);
        head[slot * width..slot * width + width].copy_from_slice(&tail[..width]);
    }
    column.truncate(last * width);
}

/// Generates a column bank and its chunk type from the kind's column
/// list.
///
/// ```text
/// column_bank! {
///     /// Bank docs.
///     pub struct FooBank, /// Chunk docs.
///     FooSliceMut {
///         consts: FooConsts,
///         fresh(c),
///         /// Output assignment per ant (required).
///         assignment: u32 [1] = IDLE,
///         /// A per-task row per ant.
///         counts: u16 [k] = 0,
///     }
/// }
/// ```
///
/// Every column is `[1]` (one element per ant) or `[k]` (one per task);
/// the initializer is the fresh-ant value and may read the bank
/// constants through the name given to `fresh(..)`. The `assignment`
/// column is what `len` counts and what [`drive!`] writes to the
/// engine. A chunk borrows the bank constants, so splitting a bank and
/// taking a one-slot chunk copy only pointers.
macro_rules! column_bank {
    (@width 1, $k:expr) => {
        1
    };
    (@width k, $k:expr) => {
        $k
    };
    (
        $(#[$bank_meta:meta])*
        pub struct $Bank:ident, $(#[$slice_meta:meta])* $Slice:ident {
            consts: $Consts:ty,
            fresh($c:ident),
            $($(#[$col_meta:meta])* $col:ident: $ty:ty [$w:tt] = $init:expr,)+
        }
    ) => {
        $(#[$bank_meta])*
        #[derive(Clone, Debug)]
        pub struct $Bank {
            consts: $Consts,
            num_tasks: usize,
            $($(#[$col_meta])* $col: Vec<$ty>,)+
        }

        $(#[$slice_meta])*
        #[derive(Debug)]
        pub struct $Slice<'a> {
            consts: &'a $Consts,
            num_tasks: usize,
            $($col: &'a mut [$ty],)+
        }

        impl $Bank {
            /// A bank of `n` fresh ants.
            fn with_consts(consts: $Consts, num_tasks: usize, n: usize) -> Self {
                let mut bank = Self { consts, num_tasks, $($col: Vec::new(),)+ };
                bank.reset_columns(num_tasks, n);
                bank
            }

            /// Refills every column with `n` fresh ants over `num_tasks`
            /// tasks, reusing the allocations.
            fn reset_columns(&mut self, num_tasks: usize, n: usize) {
                assert!(num_tasks >= 1, "at least one task");
                self.num_tasks = num_tasks;
                #[allow(unused_variables)]
                let $c = &self.consts;
                $($crate::column::refill(
                    &mut self.$col,
                    $init,
                    n * column_bank!(@width $w, num_tasks),
                );)+
            }

            /// Number of ants.
            pub fn len(&self) -> usize {
                self.assignment.len()
            }

            /// True iff the bank holds no ants.
            pub fn is_empty(&self) -> bool {
                self.assignment.is_empty()
            }

            /// The assignment of the ant at `slot`.
            pub fn assignment(&self, slot: usize) -> antalloc_env::Assignment {
                $crate::column::dec(self.assignment[slot])
            }

            /// Appends one fresh ant (a spawn).
            pub fn push_fresh(&mut self) {
                #[allow(unused_variables)]
                let $c = &self.consts;
                $(self.$col.extend(std::iter::repeat_n(
                    $init,
                    column_bank!(@width $w, self.num_tasks),
                ));)+
            }

            /// Removes the ant at `slot` by swap-removal (the last ant
            /// moves into `slot`).
            pub fn swap_remove(&mut self, slot: usize) {
                $($crate::column::swap_remove_row(
                    &mut self.$col,
                    slot,
                    column_bank!(@width $w, self.num_tasks),
                );)+
            }

            /// The whole bank as a splittable mutable slice.
            pub fn as_slice_mut(&mut self) -> $Slice<'_> {
                $Slice {
                    consts: &self.consts,
                    num_tasks: self.num_tasks,
                    $($col: &mut self.$col,)+
                }
            }

            /// The ant at `slot` as a one-ant chunk.
            fn slot_mut(&mut self, slot: usize) -> $Slice<'_> {
                let k = self.num_tasks;
                $Slice {
                    consts: &self.consts,
                    num_tasks: k,
                    $($col: {
                        let w = column_bank!(@width $w, k);
                        &mut self.$col[slot * w..slot * w + w]
                    },)+
                }
            }
        }

        impl<'a> $Slice<'a> {
            /// Number of ants in the chunk.
            pub fn len(&self) -> usize {
                self.assignment.len()
            }

            /// True iff the chunk is empty.
            pub fn is_empty(&self) -> bool {
                self.assignment.is_empty()
            }

            /// Splits the chunk at `mid` into two disjoint chunks.
            pub fn split_at_mut(self, mid: usize) -> ($Slice<'a>, $Slice<'a>) {
                let k = self.num_tasks;
                $(let $col = self.$col.split_at_mut(mid * column_bank!(@width $w, k));)+
                (
                    $Slice { consts: self.consts, num_tasks: k, $($col: $col.0,)+ },
                    $Slice { consts: self.consts, num_tasks: k, $($col: $col.1,)+ },
                )
            }
        }
    };
}

/// The fused stepping loop every column bank runs: steps each ant of
/// the chunk `$slice` through the step body (same draws, same order as
/// the per-ant reference) and routes its next assignment through
/// `$writer` at its colony id `$ids[i]`. A shared (well-mixed) round
/// hoists its one view out of the loop; a per-ant round selects each
/// ant's view with `view_for(ids[i])`.
///
/// The step is written as a closure, `|s, i, view, rng| body`, with
/// `s` the chunk, `i` the ant's slot, `view` its round view and `rng`
/// its stream. A macro rather than a generic function: it pastes the
/// body into both loops, as hand-written loops would have it, where a
/// closure handed to a generic method was left un-inlined (the Ant
/// kernel ran ~7% slower that way on a 2-vCPU VM).
macro_rules! drive {
    (
        $slice:expr, $sensed:expr, $rngs:expr, $ids:expr, $writer:expr,
        |$s:ident, $i:ident, $view:ident, $rng:ident| $step:expr
    ) => {{
        let (chunk, sensed, rngs, ids, writer) = ($slice, $sensed, $rngs, $ids, $writer);
        let n = chunk.len();
        assert_eq!(n, rngs.len(), "one RNG stream per ant");
        assert_eq!(n, ids.len(), "one colony id per ant");
        match sensed.shared_view() {
            Some($view) => {
                for $i in 0..n {
                    let ($s, $rng) = (&mut *chunk, &mut rngs[$i]);
                    $step;
                    writer.write(ids[$i], chunk.assignment[$i]);
                }
            }
            None => {
                for $i in 0..n {
                    let $view = sensed.view_for(ids[$i]);
                    let ($s, $rng) = (&mut *chunk, &mut rngs[$i]);
                    $step;
                    writer.write(ids[$i], chunk.assignment[$i]);
                }
            }
        }
    }};
}

pub(crate) use column_bank;
pub(crate) use drive;
