(** Shared machinery of the sorted lock-free linked list (Harris's
    algorithm with Michael's modification that unlinks and retires
    deleted nodes timely — the variant usable by every SMR scheme,
    robust ones included) and of Michael's hash map, whose buckets are
    exactly these lists.

    A node [x] is {e logically deleted} iff the link stored in
    [x.next] carries the mark bit; the mark travels with the successor
    pointer in one atomic word — modelled as a CAS on an immutable
    [link] record.  Traversals unlink (and retire) every marked node
    they pass, so deleted nodes are reclaimed promptly no matter which
    operation encounters them first.

    Every list ends in one shared sentinel node, [tail], so a link
    always names a node and building one allocates no option box.
    Traversals stop on [c == tail] before they read [c.next] or
    compare [c.key], so the sentinel's key never shadows a real one
    ([max_int] included), and its header is [Hdr.nil], which nothing
    retires.

    A map operation allocates only the link records its CASes publish.
    [search] is top-level recursion: it returns the first node with
    key >= the target and leaves the predecessor cell and the link it
    validated there (the CAS witness) in the calling tid's cursor, a
    padded per-tid record that [insert_in], [put_in] and [remove_in]
    read back.  A tid is held by one domain at a time, as the
    trackers' own per-tid state already requires.  [fold_live_in] has
    the same top-level shape.  Insertion searches before it
    allocates, and a pooled node's free hook is bound the first time
    the pool hands the node out, not rebuilt on every allocation. *)

open Smr

module Make (T : Tracker.S) = struct
  type node = {
    hdr : Hdr.t;
    pool_index : int;
    mutable key : int;
    mutable value : int;
    next : link Atomic.t;
  }

  and link = { succ : node; marked : bool }

  (* The end of every list.  Its [next] cell is never read, but a node
     must have one, and the cell cannot name [tail] before [tail]
     exists: it starts on an immediate placeholder that is replaced
     before [tail] escapes. *)
  let tail =
    let n =
      {
        hdr = Hdr.nil;
        pool_index = -1;
        key = 0;
        value = 0;
        next = Atomic.make (Obj.magic 0);
      }
    in
    Atomic.set n.next { succ = n; marked = false };
    n

  (* The link of an empty list, shared by every head.  Links may be
     shared (here, and by [add]'s reuse of its witness) without ABA:
     every CAS installs a fresh record, so a published cell never
     returns to a link it has left, and a node's cell is set to an
     existing link only before the node is published, when the SMR
     scheme guarantees no domain still holds a witness read from it. *)
  let end_link = Atomic.get tail.next
  let make_head () = Atomic.make end_link

  module Pool = Mpool.Make (struct
    type t = node

    let create ~index =
      {
        hdr = Hdr.create ();
        pool_index = index;
        key = 0;
        value = 0;
        next = Atomic.make end_link;
      }

    let index n = n.pool_index
    let on_alloc n = Hdr.set_live n.hdr
    let on_free _ = ()
  end)

  (* Where the last [search] of a tid stopped: the predecessor cell and
     the validated link read from it. *)
  type cursor = { mutable prev : link Atomic.t; mutable prev_link : link }

  type core = {
    cfg : Config.t;
    tracker : T.t;
    pool : Pool.t;
    cursors : cursor array;
  }

  let make_core cfg =
    {
      cfg;
      tracker = T.create cfg;
      pool = Pool.create ();
      cursors =
        Array.init cfg.Config.nthreads (fun _ ->
            Prims.Padded.copy { prev = tail.next; prev_link = end_link });
    }

  let gauges_of core = T.gauges core.tracker @ Pool.gauges core.pool
  let inject_alloc_failures_in core ~n = Pool.inject_failures core.pool ~n
  let proj (l : link) = l.succ.hdr

  let alloc core ~tid key value =
    let n = Pool.alloc core.pool in
    n.key <- key;
    n.value <- value;
    if n.hdr.Hdr.free_hook == Hdr.no_hook then
      n.hdr.Hdr.free_hook <- (fun () -> Pool.free core.pool n);
    T.alloc_hook core.tracker ~tid n.hdr;
    n

  (* Free a node that was never published (lost insertion race). *)
  let discard n =
    Hdr.set_freed n.hdr;
    n.hdr.Hdr.free_hook ()

  (* Michael's find: returns the first node with key >= [key] ([tail]
     = end of list) and leaves in [cur] the predecessor link cell and
     the exact validated value read from it (needed as the CAS
     witness).  Unlinks and retires every marked node encountered;
     restarts from [head] when a CAS witness goes stale.  [d] rotates
     the protection slot over prev/curr/next. *)
  let rec advance core ~tid cur ~head key prev (prev_link : link) d =
    let c = prev_link.succ in
    if c == tail then begin
      cur.prev <- prev;
      cur.prev_link <- prev_link;
      c
    end
    else
      let c_link = T.read core.tracker ~tid ~idx:(d mod 3) c.next proj in
      if c_link.marked then begin
        (* c is logically deleted: unlink it here.  The witness
           [prev_link] is unmarked, so the CAS also fails if the
           predecessor itself got deleted meanwhile. *)
        let repaired = { succ = c_link.succ; marked = false } in
        if Atomic.compare_and_set prev prev_link repaired then begin
          T.retire core.tracker ~tid c.hdr;
          advance core ~tid cur ~head key prev repaired (d + 1)
        end
        else search core ~tid cur ~head key
      end
      else if c.key >= key then begin
        cur.prev <- prev;
        cur.prev_link <- prev_link;
        c
      end
      else advance core ~tid cur ~head key c.next c_link (d + 1)

  and search core ~tid cur ~head key =
    advance core ~tid cur ~head key head
      (T.read core.tracker ~tid ~idx:0 head proj)
      1

  let get_in core ~tid ~head key =
    let c = search core ~tid core.cursors.(tid) ~head key in
    if c != tail && c.key = key then Some c.value else None

  (* Shared by insert and put: link a node for [key] after the
     cursor's predecessor, or, if [key] is present, overwrite its value
     when [update] and report false.  [fresh] is the node allocated by
     an earlier round whose CAS lost, or [tail] while none is: the
     first search runs before anything is allocated.  [fresh.next]
     takes the witness itself: it is unmarked and names [c]. *)
  let rec add core ~tid cur ~head ~update key value fresh =
    let c = search core ~tid cur ~head key in
    if c != tail && c.key = key then begin
      (* put updates the value in place when the key exists.  (A
         node-replacing variant — mark the old node, swing the
         predecessor to a fresh one — was tried and rejected: if the
         swing CAS fails after the mark, the operation has already
         published a deletion and must re-insert, making one put two
         observable mutations.  The linearizability tests caught
         exactly that.)  A single word write on the still-protected
         node is atomic and linearizes at the write; shard.mli's
         [read_inline] gives the memory-model argument that a reader
         bracketed by the commit epoch never accepts it uncommitted. *)
      if update then c.value <- value;
      if fresh != tail then discard fresh;
      false
    end
    else
      let fresh = if fresh == tail then alloc core ~tid key value else fresh in
      Atomic.set fresh.next cur.prev_link;
      Atomic.compare_and_set cur.prev cur.prev_link
        { succ = fresh; marked = false }
      || add core ~tid cur ~head ~update key value fresh

  let insert_in core ~tid ~head key value =
    add core ~tid core.cursors.(tid) ~head ~update:false key value tail

  let put_in core ~tid ~head key value =
    add core ~tid core.cursors.(tid) ~head ~update:true key value tail

  let rec remove_in core ~tid ~head key =
    let cur = core.cursors.(tid) in
    let c = search core ~tid cur ~head key in
    if c == tail || c.key <> key then false
    else
      let c_link = Atomic.get c.next in
      if c_link.marked then remove_in core ~tid ~head key
        (* someone else is deleting c *)
      else if
        Atomic.compare_and_set c.next c_link
          { succ = c_link.succ; marked = true }
      then begin
        (* Logical deletion done; try to unlink physically.  On failure
           a later traversal performs the unlink (and the retire) —
           exactly one unlinker exists because only one CAS can ever
           swing the unique predecessor past c. *)
        if
          Atomic.compare_and_set cur.prev cur.prev_link
            { succ = c_link.succ; marked = false }
        then T.retire core.tracker ~tid c.hdr
        else ignore (search core ~tid cur ~head key : node);
        true
      end
      else remove_in core ~tid ~head key

  (* Live traversal for the snapshot path: the same hand-over-hand
     rotating-slot protection as [search] (prev/curr/next always
     covered, so this is safe under every scheme, HP/HE included),
     but strictly read-only — marked nodes are skipped, never
     unlinked, so a snapshot reader on another tid cannot race the
     single-mutator discipline of the serving consumer. *)
  let rec fold_live core ~tid f acc (l : link) d =
    let c = l.succ in
    if c == tail then acc
    else
      let c_link = T.read core.tracker ~tid ~idx:(d mod 3) c.next proj in
      let acc = if c_link.marked then acc else f acc c.key c.value in
      fold_live core ~tid f acc c_link (d + 1)

  let fold_live_in core ~tid ~head f acc =
    fold_live core ~tid f acc (T.read core.tracker ~tid ~idx:0 head proj) 1

  (* Quiescent helpers. *)

  let fold_in ~head f acc =
    let rec go acc c =
      if c == tail then acc
      else
        let l = Atomic.get c.next in
        go (if l.marked then acc else f acc c) l.succ
    in
    go acc (Atomic.get head).succ

  let to_list_in ~head =
    List.rev (fold_in ~head (fun acc c -> (c.key, c.value) :: acc) [])

  let size_in ~head = fold_in ~head (fun n _ -> n + 1) 0

  let check_in ~head =
    let rec go prev c =
      if c != tail then begin
        Hdr.check_not_freed "Hm_core.check: reachable node freed" c.hdr;
        if prev != tail && c.key <= prev.key then
          failwith
            (Printf.sprintf "Hm_core.check: order violation %d <= %d" c.key
               prev.key);
        go c (Atomic.get c.next).succ
      end
    in
    go tail (Atomic.get head).succ
end
