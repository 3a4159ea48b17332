open Smr

type t = { mutable first : Hdr.t; mutable count : int; mutable min_birth : int }

let create () =
  Prims.Padded.copy { first = Hdr.nil; count = 0; min_birth = max_int }

let add t h =
  h.Hdr.batch_link <- t.first;
  t.first <- h;
  t.count <- t.count + 1;
  if h.Hdr.birth < t.min_birth then t.min_birth <- h.Hdr.birth

let size t = t.count
let is_empty t = t.count = 0
let min_birth t = t.min_birth

let seal t ~adjs =
  if t.count = 0 then invalid_arg "Batch.seal: empty batch";
  let refnode = t.first in
  Atomic.set refnode.Hdr.nref 0;
  refnode.Hdr.adjs <- adjs;
  let rec link h =
    if not (Hdr.is_nil h) then begin
      h.Hdr.ref_node <- refnode;
      link h.Hdr.batch_link
    end
  in
  link refnode;
  t.first <- Hdr.nil;
  t.count <- 0;
  t.min_birth <- max_int;
  refnode

let nodes refnode =
  let rec go acc h =
    if Hdr.is_nil h then List.rev acc else go (h :: acc) h.Hdr.batch_link
  in
  go [] refnode
