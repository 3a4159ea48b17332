type t = {
  uid : int;
  mutable next : t;
  mutable batch_link : t;
  mutable ref_node : t;
  nref : int Atomic.t;
  mutable adjs : int;
  mutable birth : int;
  mutable retire_era : int;
  mutable retire_ns : int;
  mutable free_hook : unit -> unit;
  state : int Atomic.t;
}

(* Named, so [h.free_hook == no_hook] tells an unbound hook apart
   ([ignore] is a primitive: each mention of it is a closure of its
   own, equal to no other). *)
let no_hook () = ()

let state_live = 0
let state_retired = 1
let state_freed = 2

let rec nil =
  {
    uid = -1;
    next = nil;
    batch_link = nil;
    ref_node = nil;
    nref = Atomic.make 0;
    adjs = 0;
    birth = 0;
    retire_era = 0;
    retire_ns = 0;
    free_hook = no_hook;
    state = Atomic.make state_live;
  }

let is_nil h = h == nil

(* What a freed header's registry cell decodes to (distinct from [nil]:
   a nil cell means "not yet published" and lookups wait on it). *)
let rec tombstone =
  {
    uid = -2;
    next = tombstone;
    batch_link = tombstone;
    ref_node = tombstone;
    nref = Atomic.make 0;
    adjs = 0;
    birth = 0;
    retire_era = 0;
    retire_ns = 0;
    free_hook = no_hook;
    state = Atomic.make state_freed;
  }

let is_tombstone h = h == tombstone

let uid_counter = Atomic.make 0

(* ------------------------------------------------------------------ *)
(* Uid registry: a wait-free [uid -> header] directory, the decode
   side of the packed single-word Head backend (Head.Packed encodes a
   header as [uid + 1] inside an immediate int, so something must map
   the int back to the block).

   Same chunked never-moves shape as Mpool's node registry: headers
   live in fixed-size chunks hung off a fixed directory and are never
   moved after publication, so [of_uid] is two array loads plus one
   atomic load.  [create] reserves the uid (the fetch-and-add above)
   strictly before publishing, so a uid below [uid_counter] may
   designate a cell that is not yet — but is about to be — filled;
   [of_uid] waits on that specific cell (the publisher is a bounded
   number of instructions away from the store).

   The registry holds a strong reference while the header is live or
   retired: a packed head keeps a retirement list reachable through
   nothing but an int, so the registry is what keeps the blocks alive
   for the GC.  [set_freed] swaps the cell to a dead sentinel
   ([tombstone]) and [set_live] republishes on pool recycling, so a
   freed header is retained only by whatever recycles it (its pool) —
   dropping a pool reclaims its headers instead of pinning them (and,
   through their free hooks, the pool itself) forever.  Decoding a
   freed uid is possible only from a stale snapshot of a head word
   (the node left the head before it could be freed), but staleness
   does {e not} make the snapshot's value CAS fail: the uid can be
   recycled ([set_live]) and re-inserted, and the word can revisit its
   old bit pattern, so the CAS may ABA-succeed while the decode — if
   it raced the freed window — returned [tombstone].  Decoders that go
   on to CAS against the snapshot must therefore test [is_tombstone]
   and retry on a fresh read; a {e non}-tombstone decode is ABA-safe,
   because a uid denotes the same physical header for that header's
   whole existence (set_live does not reassign it) — the reason
   uid-as-index works where Mpool-index-as-index would not
   (see DESIGN.md §1). *)

let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits
let max_chunks = 1 lsl 16
let uid_capacity = chunk_size * max_chunks

let registry : t Atomic.t array option Atomic.t array =
  Array.init max_chunks (fun _ -> Atomic.make None)

let register h =
  let i = h.uid in
  if i lsr chunk_bits >= max_chunks then
    failwith "Hdr.create: uid registry exhausted";
  let slot = registry.(i lsr chunk_bits) in
  (match Atomic.get slot with
  | Some _ -> ()
  | None ->
      (* Only one thread wins the install; losers use the winner's
         chunk.  Cells start at [nil] (not [option]) so the lookup
         fast path allocates nothing. *)
      let arr = Array.init chunk_size (fun _ -> Atomic.make nil) in
      ignore (Atomic.compare_and_set slot None (Some arr)));
  match Atomic.get slot with
  | Some arr -> Atomic.set arr.(i land (chunk_size - 1)) h
  | None -> assert false

(* The spin loops live at top level (not as local closures) so the
   decode path of the packed backend allocates nothing. *)
let rec registry_chunk c =
  match Atomic.get registry.(c) with
  | Some arr -> arr
  | None ->
      Domain.cpu_relax ();
      registry_chunk c

let rec registry_wait cell =
  let h = Atomic.get cell in
  if h == nil then begin
    Domain.cpu_relax ();
    registry_wait cell
  end
  else h

let of_uid i =
  if i < 0 || i >= Atomic.get uid_counter then
    invalid_arg "Hdr.of_uid: uid out of range";
  let arr = registry_chunk (i lsr chunk_bits) in
  registry_wait arr.(i land (chunk_size - 1))

let create () =
  let h =
    {
      uid = Atomic.fetch_and_add uid_counter 1;
      next = nil;
      batch_link = nil;
      ref_node = nil;
      nref = Atomic.make 0;
      adjs = 0;
      birth = 0;
      retire_era = 0;
      retire_ns = 0;
      free_hook = no_hook;
      state = Atomic.make state_live;
    }
  in
  register h;
  h

exception Lifecycle of string * t

let state_name = function
  | 0 -> "live"
  | 1 -> "retired"
  | 2 -> "freed"
  | _ -> "?"

let set_live h =
  register h;
  h.next <- nil;
  h.batch_link <- nil;
  h.ref_node <- nil;
  Atomic.set h.nref 0;
  h.adjs <- 0;
  h.birth <- 0;
  h.retire_era <- 0;
  h.retire_ns <- 0;
  Atomic.set h.state state_live

let set_retired h =
  let old = Atomic.exchange h.state state_retired in
  if old <> state_live then raise (Lifecycle ("double-retire", h))

let set_freed h =
  let old = Atomic.exchange h.state state_freed in
  if old = state_freed then raise (Lifecycle ("double-free", h));
  (* Drop the registry's strong reference: from here until the next
     [set_live] the only thing keeping the record alive is its pool. *)
  match Atomic.get registry.(h.uid lsr chunk_bits) with
  | Some arr -> Atomic.set arr.(h.uid land (chunk_size - 1)) tombstone
  | None -> assert false

let is_freed h = Atomic.get h.state = state_freed
let is_live h = Atomic.get h.state = state_live

let check_not_freed ctx h =
  if (not (is_nil h)) && is_freed h then
    raise (Lifecycle ("use-after-free: " ^ ctx, h))

let pp ppf h =
  if is_nil h then Format.fprintf ppf "<nil>"
  else
    Format.fprintf ppf "#%d[%s nref=%d birth=%d retire=%d]" h.uid
      (state_name (Atomic.get h.state))
      (Atomic.get h.nref) h.birth h.retire_era
