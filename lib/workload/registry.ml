(** The (scheme x structure) registry behind the benchmark harness:
    every reclamation scheme the paper compares (§6) and every
    benchmark structure, addressable by name. *)

type scheme = {
  s_name : string;
  s_mod : Smr.Tracker.packed;
  (* HP-style per-pointer protection cannot cover Bonsai's snapshot
     traversals; the paper omits HP and HE on that benchmark. *)
  pointer_grained : bool;
}

let scheme ?(pointer_grained = false) s_name s_mod =
  { s_name; s_mod; pointer_grained }

let schemes : scheme list =
  let open Hyaline_core in
  [
    scheme "Leaky" (module Smr.Leaky);
    scheme "Epoch" (module Smr.Ebr);
    scheme "HP" (module Smr.Hp) ~pointer_grained:true;
    scheme "HE" (module Smr.He) ~pointer_grained:true;
    scheme "IBR" (module Smr.Ibr);
    scheme "Hyaline" (module Hyaline);
    scheme "Hyaline-1" (module Hyaline1);
    scheme "Hyaline-S" (module Hyaline_s);
    scheme "Hyaline-1S" (module Hyaline1s);
    scheme "Hyaline(llsc)" (module Hyaline.Llsc);
    scheme "Hyaline-S(llsc)" (module Hyaline_s.Llsc);
    scheme "Hyaline(packed)" (module Hyaline.Packed);
    scheme "Hyaline-S(packed)" (module Hyaline_s.Packed);
    scheme "Hyaline-1(packed)" (module Hyaline1.Packed);
    scheme "Hyaline-1S(packed)" (module Hyaline1s.Packed);
    scheme "Crystalline" (module Crystalline);
    scheme "Crystalline(packed)" (module Crystalline.Packed);
  ]

type structure = {
  d_name : string;
  d_mod : (module Dstruct.Map_intf.MAKER);
  hp_compatible : bool;
}

let structures : structure list =
  [
    { d_name = "list"; d_mod = (module Dstruct.Harris_list.Make); hp_compatible = true };
    { d_name = "hashmap"; d_mod = (module Dstruct.Hash_map.Make); hp_compatible = true };
    { d_name = "bonsai"; d_mod = (module Dstruct.Bonsai.Make); hp_compatible = false };
    { d_name = "nmtree"; d_mod = (module Dstruct.Nm_tree.Make); hp_compatible = true };
  ]

(* Scheme lookup is forgiving about punctuation ("hyaline-1s",
   "Hyaline_1S" and "hyaline1s" are the same name) and accepts the
   literature's usual aliases, so CLI flags like
   --schemes ebr,hyaline,hyaline1s resolve without the user knowing
   our canonical spelling. *)
let normalize_scheme_name name =
  let b = Buffer.create (String.length name) in
  String.iter
    (fun c ->
      match Char.lowercase_ascii c with
      | ('a' .. 'z' | '0' .. '9') as c -> Buffer.add_char b c
      | _ -> ())
    name;
  match Buffer.contents b with "ebr" -> "epoch" | n -> n

let find_scheme name =
  let wanted = normalize_scheme_name name in
  match
    List.find_opt (fun s -> normalize_scheme_name s.s_name = wanted) schemes
  with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "unknown scheme %S (known: %s)" name
           (String.concat ", " (List.map (fun s -> s.s_name) schemes)))

(* Head-backend selection: map a scheme to its sibling over another
   backend ("Hyaline-S" -> "Hyaline-S(packed)").  The base name (no
   suffix) is each family's default backend — dwcas for the slotted
   schemes, the boxed word for Hyaline-1/1S — so [~backend:"default"]
   strips any suffix.  Schemes without the requested variant (the
   baselines; Hyaline-1 under llsc) are returned unchanged: a sweep
   stays total over its scheme list. *)
let with_backend (s : scheme) ~backend =
  let base =
    match String.index_opt s.s_name '(' with
    | Some i -> String.sub s.s_name 0 i
    | None -> s.s_name
  in
  let wanted =
    match backend with
    | "default" | "dwcas" | "boxed" -> base
    | b -> base ^ "(" ^ b ^ ")"
  in
  let wanted = normalize_scheme_name wanted in
  match
    List.find_opt (fun s -> normalize_scheme_name s.s_name = wanted) schemes
  with
  | Some s -> s
  | None -> s

(* Name-level [with_backend] for CLI sweep lists ([Figures] addresses
   schemes by name). *)
let scheme_with_backend name ~backend =
  (with_backend (find_scheme name) ~backend).s_name

let find_structure name =
  match List.find_opt (fun d -> d.d_name = String.lowercase_ascii name) structures with
  | Some d -> d
  | None ->
      invalid_arg
        (Printf.sprintf "unknown structure %S (known: %s)" name
           (String.concat ", " (List.map (fun d -> d.d_name) structures)))

let compatible ~structure ~scheme =
  structure.hp_compatible || not scheme.pointer_grained

(** Instantiate a benchmark map for a (structure, scheme) pair. *)
let make_map (d : structure) (s : scheme) : (module Dstruct.Map_intf.S) =
  let module Mk = (val d.d_mod : Dstruct.Map_intf.MAKER) in
  let module T = (val s.s_mod : Smr.Tracker.S) in
  (module Mk (T))
