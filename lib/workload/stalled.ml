(* The one stalled-reader gate: see stalled.mli.  Judging growth over
   the second N ops, rather than a ratio against an EBR run, keeps a
   robust backlog that is merely smaller than EBR's (1250 beside 5000
   passes a 4x ratio) from reading as bounded. *)

type row = { name : string; robust : bool; at_n : int; at_2n : int }

let robust (s : Registry.scheme) =
  let (module T) = s.Registry.s_mod in
  T.robust

let row (s : Registry.scheme) ~at_n ~at_2n =
  { name = s.Registry.s_name; robust = robust s; at_n; at_2n }

let slack (cfg : Smr.Config.t) = cfg.Smr.Config.slots * cfg.Smr.Config.batch_min

let to_string r =
  Printf.sprintf "%s (%s): %d -> %d (%+d)" r.name
    (if r.robust then "robust" else "not robust")
    r.at_n r.at_2n (r.at_2n - r.at_n)

let judge ~slack ~bound ~floor r =
  let grew = r.at_2n - r.at_n in
  if r.robust && grew > slack then
    Some
      (Printf.sprintf "%s: kept growing past the slack %d behind the stall"
         (to_string r) slack)
  else if r.robust && r.at_2n >= bound then
    Some (Printf.sprintf "%s: not under the bound %d" (to_string r) bound)
  else if (not r.robust) && grew <= slack then
    Some
      (Printf.sprintf
         "%s: grew by no more than the slack %d, so the stalled reader did \
          not bite"
         (to_string r) slack)
  else if (not r.robust) && r.at_2n <= floor then
    Some
      (Printf.sprintf "%s: pinned no more than the floor %d behind the stall"
         (to_string r) floor)
  else None

let contrast rows =
  if List.exists (fun r -> r.robust) rows
     && List.exists (fun r -> not r.robust) rows
  then None
  else Some "the stalled-reader contrast needs a robust and a non-robust scheme"
