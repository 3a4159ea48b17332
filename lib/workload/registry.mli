(** The (scheme x structure) registry behind the benchmark harness:
    every reclamation scheme the paper compares in §6 and every
    benchmark structure, addressable by name. *)

type scheme = {
  s_name : string;
  s_mod : Smr.Tracker.packed;
      (** The scheme's own module; its [robust] flag is the one the
          stalled-reader gate ({!Stalled}) judges by. *)
  pointer_grained : bool;
      (** HP-style per-pointer protection; such schemes are not run on
          the Bonsai tree, as in the paper. *)
}

val schemes : scheme list

type structure = {
  d_name : string;
  d_mod : (module Dstruct.Map_intf.MAKER);
  hp_compatible : bool;
}

val structures : structure list

val find_scheme : string -> scheme
(** Case- and punctuation-insensitive lookup (["hyaline1s"] and
    ["Hyaline-1S"] are the same scheme), with the alias ["ebr"] for
    ["Epoch"].  @raise Invalid_argument if unknown. *)

val with_backend : scheme -> backend:string -> scheme
(** [with_backend s ~backend] is the scheme implementing [s]'s
    algorithm over the given head backend (["dwcas"], ["llsc"],
    ["packed"]; ["default"] strips any suffix), e.g. ["Hyaline-S"]
    with [~backend:"packed"] is ["Hyaline-S(packed)"].  Schemes with
    no such variant — the non-Hyaline baselines, Hyaline-1 under
    [llsc] — are returned unchanged, so mapping a whole sweep list
    stays total. *)

val scheme_with_backend : string -> backend:string -> string
(** {!with_backend} on scheme names, for CLI sweep lists.
    @raise Invalid_argument if the base name is unknown. *)

val find_structure : string -> structure
(** @raise Invalid_argument if unknown. *)

val compatible : structure:structure -> scheme:scheme -> bool
(** Whether the paper's evaluation runs this pair. *)

val make_map : structure -> scheme -> (module Dstruct.Map_intf.S)
(** Instantiate the benchmark map for a pair. *)
