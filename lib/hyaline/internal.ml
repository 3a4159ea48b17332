open Smr

type reap = { mutable batches : Hdr.t list }

let new_reap () = Prims.Padded.copy { batches = [] }

let add_ref reap node v =
  let refn = node.Hdr.ref_node in
  let old = Atomic.fetch_and_add refn.Hdr.nref v in
  (* OCaml ints wrap modulo 2^63, which is exactly the unsigned
     arithmetic the Adjs construction needs: the count reads zero only
     once every slot's contribution has landed. *)
  if old + v = 0 then reap.batches <- refn :: reap.batches

let free_batch stats ~tid refn =
  let rec go h =
    if not (Hdr.is_nil h) then begin
      (* The hook recycles the node, so grab the chain link first. *)
      let next = h.Hdr.batch_link in
      Tracker.free_block stats ~tid h;
      go next
    end
  in
  go refn

(* Empty-guarded so a bracket that reaped nothing — the common case —
   allocates neither the partial application nor the reversal; reaps
   are reused per thread, so clear {e before} freeing (an exception
   from a free hook must not leave batches behind to double-free). *)
let drain stats ~tid reap =
  match reap.batches with
  | [] -> ()
  | batches ->
      reap.batches <- [];
      List.iter (free_batch stats ~tid) (List.rev batches)

(* Top-level (not a local closure) so callers on the bracket path
   allocate nothing. *)
let rec traverse_go reap handle curr count =
  if Hdr.is_nil curr then count
  else begin
    let next = curr.Hdr.next in
    add_ref reap curr (-1);
    if curr != handle then traverse_go reap handle next (count + 1)
    else count + 1
  end

let traverse reap ~next ~handle = traverse_go reap handle next 0

module Make (H : Head.OPS) = struct
  let insert_batch heads ~k refnode ~skip ~after_insert reap =
    let empty = ref 0 in
    let do_adj = ref false in
    let node = ref refnode.Hdr.batch_link in
    let adjs = refnode.Hdr.adjs in
    (* [attempt] finishes the slot (inserted, or credited empty) or
       returns [false] on a lost CAS; only then does [retry] create
       the backoff record, so an uncontended retire allocates no
       backoff at all. *)
    let attempt head slot =
      let snap = H.read head in
      if H.href snap = 0 || skip ~slot then begin
        (* No thread in this slot can reference the batch: credit
           the slot's Adjs directly (REF #1# / Fig. 5's era skip). *)
        do_adj := true;
        empty := !empty + adjs;
        true
      end
      else begin
        let n = !node in
        assert (not (Hdr.is_nil n));
        let prev = H.hptr snap in
        (* A tombstone decode means the snapshot went stale — the head's
           first node was freed after [read] — yet the value CAS below
           could still ABA-succeed (the uid survives recycling and the
           word can revisit its old bit pattern), which would link the
           shared sentinel into a live list.  Fail the attempt and
           retry from a fresh read; a non-tombstone decode is the same
           physical header the word denotes (uid permanence), so
           proceeding is ABA-safe.  See Hdr.is_tombstone. *)
        if Hdr.is_tombstone prev then false
        else begin
          n.Hdr.next <- prev;
          if H.cas_ptr head ~expected:snap n then begin
            node := n.Hdr.batch_link;
            after_insert ~slot ~href:(H.href snap);
            (* REF #2#: the displaced predecessor is complete for this
               slot — credit its batch's own Adjs plus the snapshot of
               threads that will dereference it on leave. *)
            if not (Hdr.is_nil prev) then
              add_ref reap prev (prev.Hdr.ref_node.Hdr.adjs + H.href snap);
            true
          end
          else false
        end
      end
    in
    let rec retry head slot b =
      Prims.Backoff.once b;
      if not (attempt head slot) then retry head slot b
    in
    for slot = 0 to k - 1 do
      let head = heads slot in
      if not (attempt head slot) then
        retry head slot (Prims.Backoff.create ())
    done;
    (* REF #3#: all skipped slots' credits in a single adjustment.
       When every slot was empty this is k * Adjs = 0 and the FAA
       observes zero immediately — the batch frees on the spot. *)
    if !do_adj then add_ref reap refnode !empty

  (* We were the last thread out: detach the list, treating the first
     node as a predecessor (Fig. 3 lines 16-17).  Strong CAS: retry
     while the head still reads [{0, curr}] so a spurious SC failure
     (§4.4) cannot leak the list. *)
  let rec detach head curr reap =
    let s = H.read head in
    if H.href s = 0 && H.hptr s == curr then
      if H.cas_ptr head ~expected:s Hdr.nil then
        add_ref reap curr curr.Hdr.ref_node.Hdr.adjs
      else detach head curr reap

  (* One decrement attempt; returns the traversal count, or -1 when
     the CAS lost.  Decomposed from the retry loop so the uncontended
     leave — first CAS lands — allocates nothing end to end: no
     snapshot box (immediate-snap backends), no backoff record, no
     intermediate tuple. *)
  let leave_attempt head ~handle reap =
    let snap = H.read head in
    assert (H.href snap > 0);
    let curr = H.hptr snap in
    (* Reading the successor is safe only while our HRef reference
       pins the first node; the pair-validating CAS below confirms
       nothing moved in between (the reason Fig. 3 reads Next inside
       the CAS loop). *)
    let next = if curr != handle then curr.Hdr.next else Hdr.nil in
    if H.cas_ref head ~expected:snap (H.href snap - 1) then begin
      if H.href snap = 1 && not (Hdr.is_nil curr) then detach head curr reap;
      if curr != handle then traverse reap ~next ~handle else 0
    end
    else -1

  let rec leave_retry head ~handle reap b =
    Prims.Backoff.once b;
    let n = leave_attempt head ~handle reap in
    if n >= 0 then n else leave_retry head ~handle reap b

  let leave_slot head ~handle reap =
    let n = leave_attempt head ~handle reap in
    if n >= 0 then n
    else leave_retry head ~handle reap (Prims.Backoff.create ())

  let trim_slot head ~handle reap =
    let snap = H.read head in
    let curr = H.hptr snap in
    let count =
      if curr != handle then traverse reap ~next:curr.Hdr.next ~handle else 0
    in
    (curr, count)
end
