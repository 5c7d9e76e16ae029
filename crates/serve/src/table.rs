//! One declaration per counter schema.
//!
//! A stats struct (plain `u64`s that travel), the atomics behind it and
//! whatever walks its fields — wire codec, fold, rendering, docs — must
//! agree on one field list. [`stat_table!`] takes that list once, each
//! field with its doc comment and an optional rule, and produces the
//! snapshot struct, the cell struct of `AtomicU64`s with a `load` into
//! it, and `FIELDS`, the table everything else iterates.

/// One declared field of the stats struct `S`.
pub struct Field<S, R = ()> {
    /// The field's name in `S`.
    pub name: &'static str,
    /// Its doc comment.
    pub doc: &'static str,
    /// What the declaration says about it beyond name and doc.
    pub rule: R,
    /// Reads the field.
    pub get: fn(&S) -> u64,
    /// Borrows the field for writing.
    pub slot: fn(&mut S) -> &mut u64,
}

/// Declares a snapshot struct and its atomic cells from one field list:
///
/// ```text
/// stat_table! {
///     /// Docs and derives of the snapshot.
///     pub struct Snapshot { /* fields that are not counters */ }
///     /// Docs and derives of the cells.
///     pub struct Cells { /* likewise */ }
///     fields: Rule {               // `fields {` when no field has a rule
///         /// Doc comment, also the table's doc line.
///         name = RULE,             // `name,` likewise
///     }
/// }
/// ```
macro_rules! stat_table {
    (
        $(#[$smeta:meta])* pub struct $Stats:ident { $($sextra:tt)* }
        $(#[$cmeta:meta])* $cvis:vis struct $Cells:ident { $($cextra:tt)* }
        fields $(: $Rule:ty)? {
            $( $(#[doc = $doc:literal])+ $field:ident $(= $rule:expr)? ),+ $(,)?
        }
    ) => {
        $(#[$smeta])*
        pub struct $Stats {
            $( $(#[doc = $doc])+ pub $field: u64, )+
            $($sextra)*
        }

        $(#[$cmeta])*
        $cvis struct $Cells {
            $( $(#[doc = $doc])+ pub $field: std::sync::atomic::AtomicU64, )+
            $($cextra)*
        }

        impl $Stats {
            /// Every counter field, in declaration (= wire) order.
            pub const FIELDS: &'static [$crate::table::Field<$Stats $(, $Rule)?>] = &[
                $( $crate::table::Field {
                    name: stringify!($field),
                    doc: concat!($($doc),+),
                    rule: ($($rule)?),
                    get: |s| s.$field,
                    slot: |s| &mut s.$field,
                }, )+
            ];
        }

        impl $Cells {
            /// Reads every cell (`Relaxed`: each is a statistic that
            /// publishes nothing else); other fields take their default.
            #[allow(clippy::needless_update)]
            pub fn load(&self) -> $Stats {
                $Stats {
                    $( $field: self.$field.load(std::sync::atomic::Ordering::Relaxed), )+
                    ..Default::default()
                }
            }
        }
    };
}
pub(crate) use stat_table;
