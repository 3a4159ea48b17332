(** The one stalled-reader gate.

    The paper's robustness promise (§2.3) is that a stalled reader
    pins bounded garbage, whatever work the other threads do.  Every
    scenario that checks it — a tracker with a parked bracket, a
    zero-copy client parked in its reservation, a snapshot reader
    parked at its gate — samples the unreclaimed backlog twice from
    one parked bracket, after [N] churn ops and after [2N], and hands
    the pair here.  The verdict is a slope, judged against the flag
    the scheme declares about itself:

    - a robust row passes only if it grows by at most [slack] over
      the second [N] ops and ends under the caller's absolute bound;
    - a non-robust row must grow by more than [slack] and end above
      the caller's floor: that shows the adversary bites, so a robust
      row's flat line means something. *)

type row = {
  name : string;
  robust : bool;  (** what the scheme declares, not what it did *)
  at_n : int;  (** backlog after [N] churn ops behind the stall *)
  at_2n : int;  (** backlog after [2N] *)
}

val robust : Registry.scheme -> bool
(** The scheme module's own [Tracker.S.robust]. *)

val row : Registry.scheme -> at_n:int -> at_2n:int -> row

val slack : Smr.Config.t -> int
(** [slots * batch_min]: the most one parked reservation can keep
    growing by while a robust scheme is still settling its slots and
    batches (64 at {!Smr.Config.default}). *)

val judge : slack:int -> bound:int -> floor:int -> row -> string option
(** [None] if the row behaves as its flag declares, else why not.
    Both limits are exclusive: a robust row must end under [bound], a
    non-robust one above [floor]. *)

val contrast : row list -> string option
(** [None] if the rows hold at least one robust and one non-robust
    scheme, so that a pass shows both halves of the promise. *)

val to_string : row -> string
