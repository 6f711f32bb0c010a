(** Deterministic, splittable pseudo-random number generator.

    All stochastic components of the library (evolution strategy,
    Monte-Carlo descendants, pattern generation, defect sampling) draw
    exclusively from this generator so that every experiment is exactly
    reproducible from a seed.  The implementation is SplitMix64
    (Steele, Lea & Flood, OOPSLA 2014): a 64-bit state advanced by a
    Weyl sequence and finalized with a variant of the MurmurHash3
    mixer.  It is fast, passes BigCrush, and supports O(1) splitting. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed.  Two
    generators created from the same seed produce identical streams. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy and the original
    subsequently evolve independently. *)

val split : t -> t
(** [split t] derives a statistically independent generator and
    advances [t].  Use it to give sub-components their own streams. *)

val derive : t -> int -> t
(** [derive t i] is an independent child stream keyed by [i].  Unlike
    {!split} it does {e not} advance [t]: the child depends only on
    [t]'s current state and [i], so [derive (create seed) i] is a pure
    function of [(seed, i)].  Distinct indices give distinct streams.
    Use it to hand the [i]-th job of a campaign its own reproducible
    generator regardless of the order jobs are scheduled in. *)

val keyed_seed : key:string -> seed:int -> int
(** [keyed_seed ~key ~seed] is a non-negative seed for the stream of
    [create seed] derived ({!derive}) at an FNV-1a hash of [key].  A
    pure function of [(key, seed)]: the campaign runner keys it by job
    id and the service by cache key, so an answer is reproducible
    whatever the scheduling order. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n-1].  Requires [n > 0].  Uses
    rejection sampling, so the result is exactly uniform. *)

val int_in_range : t -> min:int -> max:int -> int
(** [int_in_range t ~min ~max] is uniform in [min, max] inclusive.
    Requires [min <= max]. *)

val float : t -> float -> float
(** [float t x] is uniform in [0, x). *)

val bool : t -> bool
(** Fair coin. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal deviate via the Box-Muller transform. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array.  Raises
    [Invalid_argument] on an empty array. *)

val choose_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val sample_without_replacement : t -> int -> 'a array -> 'a array
(** [sample_without_replacement t k arr] draws [min k (length arr)]
    distinct elements, in random order. *)
