(** Natarajan & Mittal's lock-free external binary search tree
    ([29]; paper §6, Figures 8d/9d/11d/12d).

    An external BST: internal nodes route, leaves carry the bindings.
    Deletion is edge-based: the deleter {e flags} the edge from the
    parent to the victim leaf, {e tags} the parent's other (survivor)
    edge to freeze it, and swings the edge from the ancestor (the
    nearest node above reached through an untagged edge) directly to
    the survivor, excising the whole chain of pending-delete parents
    in one CAS.  Both marks travel with the child pointer in a single
    atomic word — modelled as CAS on an immutable [edge] record.

    Whoever wins the excising CAS retires the entire detached chain:
    the internal nodes and their flagged leaves.  Deleters whose leaf
    disappeared under them (someone else's excision covered it) return
    without retiring, so each block is retired exactly once. *)

open Smr

let inf0 = max_int - 2
let inf1 = max_int - 1
let inf2 = max_int

module Make (T : Tracker.S) : Map_intf.S = struct
  type node = {
    hdr : Hdr.t;
    pool_index : int;
    mutable key : int;
    mutable value : int;
    mutable is_leaf : bool;
    left : edge Atomic.t;
    right : edge Atomic.t;
  }

  and edge = { child : node option; flagged : bool; tagged : bool }

  let clean_edge child = { child = Some child; flagged = false; tagged = false }

  module Pool = Mpool.Make (struct
    type t = node

    let create ~index =
      {
        hdr = Hdr.create ();
        pool_index = index;
        key = 0;
        value = 0;
        is_leaf = true;
        left = Atomic.make { child = None; flagged = false; tagged = false };
        right = Atomic.make { child = None; flagged = false; tagged = false };
      }

    let index n = n.pool_index
    let on_alloc n = Hdr.set_live n.hdr
    let on_free _ = ()
  end)

  type t = {
    cfg : Config.t;
    tracker : T.t;
    pool : Pool.t;
    r : node; (* sentinel root, key inf2 *)
    s : node; (* sentinel child, key inf1 *)
  }

  let name = "nmtree"

  let mk_static key is_leaf =
    {
      hdr = Hdr.create ();
      pool_index = -1;
      key;
      value = 0;
      is_leaf;
      left = Atomic.make { child = None; flagged = false; tagged = false };
      right = Atomic.make { child = None; flagged = false; tagged = false };
    }

  let create ?seed:_ ~cfg () =
    let r = mk_static inf2 false in
    let s = mk_static inf1 false in
    Atomic.set r.left (clean_edge s);
    Atomic.set r.right (clean_edge (mk_static inf2 true));
    Atomic.set s.left (clean_edge (mk_static inf0 true));
    Atomic.set s.right (clean_edge (mk_static inf1 true));
    { cfg; tracker = T.create cfg; pool = Pool.create (); r; s }

  let enter t ~tid = T.enter t.tracker ~tid
  let leave t ~tid = T.leave t.tracker ~tid
  let trim t ~tid = T.trim t.tracker ~tid
  let flush t ~tid = T.flush t.tracker ~tid
  let stats t = T.stats t.tracker
  let gauges t = T.gauges t.tracker @ Pool.gauges t.pool
  let inject_alloc_failures t ~n = Pool.inject_failures t.pool ~n

  let proj (e : edge) =
    match e.child with Some n -> n.hdr | None -> Hdr.nil

  let alloc t ~tid ~is_leaf key value =
    let n = Pool.alloc t.pool in
    n.key <- key;
    n.value <- value;
    n.is_leaf <- is_leaf;
    if n.hdr.Hdr.free_hook == Hdr.no_hook then
      n.hdr.Hdr.free_hook <- (fun () -> Pool.free t.pool n);
    T.alloc_hook t.tracker ~tid n.hdr;
    n

  let discard n =
    Hdr.set_freed n.hdr;
    n.hdr.Hdr.free_hook ()

  (* The child cell of [n] on the side of [key]. *)
  let child_cell n key = if key < n.key then n.left else n.right

  type seek_record = {
    ancestor : node;
    successor_addr : edge Atomic.t; (* ancestor's edge cell toward key *)
    successor_witness : edge; (* its value: {child = successor; clean} *)
    parent : node;
    leaf_addr : edge Atomic.t; (* parent's edge cell toward key *)
    leaf_witness : edge; (* its value: edge to the leaf *)
    leaf : node;
  }

  (* Protection slots: the seek record's nodes can sit arbitrarily far
     above the descent frontier (the ancestor stays put while tagged
     chains are skipped below it), so each record role owns a
     dedicated slot and protections are *transferred* as roles shift —
     a rolling window of recent reads would lose them, which for HP/HE
     means a freed-and-recycled parent and a corrupted tree (the soak
     validator caught exactly that). *)
  let slot_ancestor = 0

  and slot_successor = 1

  and slot_parent = 2

  and slot_current = 3

  and slot_scratch = 4

  and slot_target = 5

  (* Descend from the sentinels, remembering the last edge traversed
     that carried no tag: its endpoints become (ancestor, successor).
     Everything below a tagged edge is part of a pending excision. *)
  exception Restart_seek

  let seek t ~tid key =
    let tr = t.tracker in
    let read idx cell = T.read tr ~tid ~idx cell proj in
    let rec go ~ancestor ~successor_addr ~successor_witness ~parent
        ~leaf_addr ~leaf_witness current =
      if current.is_leaf then
        {
          ancestor;
          successor_addr;
          successor_witness;
          parent;
          leaf_addr;
          leaf_witness;
          leaf = current;
        }
      else begin
        (* Update the record roles FIRST: if the edge into [current]
           is untagged, it — not the previous level's edge — is the
           last untagged edge of the path, and it is the one the
           frozen-edge revalidation below must check.  (Validating the
           pre-update ancestor edge leaves a one-level blind spot: an
           excision can swing the edge into [current] while the older
           edge above stays untouched, and the descent walks into
           freed, recycled territory — found the hard way by the soak
           validator.) *)
        let ancestor, successor_addr, successor_witness =
          if not leaf_witness.tagged then begin
            T.transfer tr ~tid ~from_idx:slot_parent ~to_idx:slot_ancestor;
            T.transfer tr ~tid ~from_idx:slot_current ~to_idx:slot_successor;
            (parent, leaf_addr, leaf_witness)
          end
          else (ancestor, successor_addr, successor_witness)
        in
        (* The next node is protected in the scratch slot while the
           record roles catch up. *)
        let cell = child_cell current key in
        let e = read slot_scratch cell in
        (* A frozen (flagged/tagged) cell never changes again, so the
           protected-read validation is vacuous and its target may
           already be excised, retired and recycled.  The excision
           that could have detached it must have swung the last
           untagged edge of this very path — the (just-updated)
           witnessed ancestor edge — so revalidating that edge proves
           the region is still attached; otherwise start over.  (Clean
           cells don't need this: detaching their target changes the
           cell itself.) *)
        if
          (e.flagged || e.tagged)
          && Atomic.get successor_addr != successor_witness
        then raise Restart_seek;
        T.transfer tr ~tid ~from_idx:slot_current ~to_idx:slot_parent;
        T.transfer tr ~tid ~from_idx:slot_scratch ~to_idx:slot_current;
        match e.child with
        | Some next ->
            go ~ancestor ~successor_addr ~successor_witness ~parent:current
              ~leaf_addr:cell ~leaf_witness:e next
        | None -> failwith "Nm_tree.seek: broken edge"
      end
    in
    (* The sentinels R and S are static (never retired), so the junk
       initially occupying their role slots is harmless. *)
    let rec attempt () =
      let e_rs = read slot_successor t.r.left in
      let cell = child_cell t.s key in
      let e_sl = read slot_current cell in
      match e_sl.child with
      | Some first -> (
          try
            go ~ancestor:t.r ~successor_addr:t.r.left ~successor_witness:e_rs
              ~parent:t.s ~leaf_addr:cell ~leaf_witness:e_sl first
          with Restart_seek -> attempt ())
      | None -> failwith "Nm_tree.seek: broken sentinel"
    in
    attempt ()

  (* Retire the chain excised by a successful ancestor CAS: internals
     from [successor] down to [parent] (following tagged survivor
     edges), each one's flagged leaf, and the target leaf; the
     [survivor] subtree lives on. *)
  let retire_chain t ~tid ~successor ~survivor =
    let retire n = T.retire t.tracker ~tid n.hdr in
    let rec go n =
      if n.is_leaf then retire n
      else begin
        retire n;
        let l = Atomic.get n.left and r = Atomic.get n.right in
        if not ((l.flagged || l.tagged) && (r.flagged || r.tagged)) then
          failwith
            (Printf.sprintf
               "retire_chain: unfrozen internal key=%d idx=%d l=(%b,%b) r=(%b,%b)"
               n.key n.pool_index l.flagged l.tagged r.flagged r.tagged);
        let visit (e : edge) =
          match e.child with
          | Some c when c != survivor -> go c
          | _ -> ()
        in
        visit l;
        visit r
      end
    in
    go successor

  (* Excise the chain above the flagged leaf reachable through
     [s]: tag the survivor edge of [s.parent], then swing the
     ancestor edge.  Returns true iff this caller's CAS did the
     excision. *)
  let cleanup t ~tid key (s : seek_record) =
    let parent = s.parent in
    let child_addr, sibling_addr =
      if key < parent.key then (parent.left, parent.right)
      else (parent.right, parent.left)
    in
    let child_val = Atomic.get child_addr in
    (* If the edge toward our key is not the flagged one, we are
       helping a deletion of the sibling leaf: the survivor is on our
       side. *)
    let sibling_addr = if child_val.flagged then sibling_addr else child_addr in
    (* Freeze the survivor edge (set its tag, preserving child+flag). *)
    let rec tag () =
      let e = Atomic.get sibling_addr in
      if e.tagged then e
      else if Atomic.compare_and_set sibling_addr e { e with tagged = true }
      then { e with tagged = true }
      else tag ()
    in
    let sib = tag () in
    let survivor = Option.get sib.child in
    if
      Atomic.compare_and_set s.successor_addr s.successor_witness
        { child = Some survivor; flagged = sib.flagged; tagged = false }
    then begin
      (match s.successor_witness.child with
      | Some successor -> retire_chain t ~tid ~successor ~survivor
      | None -> ());
      true
    end
    else false

  let get t ~tid key =
    (* Alternate two slots so the node whose edge cell we are about to
       read is still protected by the previous read. *)
    let rec go d n =
      if n.is_leaf then if n.key = key then Some n.value else None
      else
        let e = T.read t.tracker ~tid ~idx:(d land 1) (child_cell n key) proj in
        match e.child with
        | Some c -> go (d + 1) c
        | None -> None
    in
    go 0 t.s

  let insert_leafpair t ~tid key value existing =
    (* New internal routing node over {existing leaf, new leaf}. *)
    let nl = alloc t ~tid ~is_leaf:true key value in
    let ni =
      alloc t ~tid ~is_leaf:false (max key existing.key) 0
    in
    if key < existing.key then begin
      Atomic.set ni.left (clean_edge nl);
      Atomic.set ni.right (clean_edge existing)
    end
    else begin
      Atomic.set ni.left (clean_edge existing);
      Atomic.set ni.right (clean_edge nl)
    end;
    (nl, ni)

  let rec insert t ~tid key value =
    let s = seek t ~tid key in
    if s.leaf.key = key then false
    else if s.leaf_witness.flagged || s.leaf_witness.tagged then begin
      (* Help the pending excision, then retry. *)
      ignore (cleanup t ~tid key s);
      insert t ~tid key value
    end
    else begin
      let nl, ni = insert_leafpair t ~tid key value s.leaf in
      if Atomic.compare_and_set s.leaf_addr s.leaf_witness (clean_edge ni)
      then true
      else begin
        discard nl;
        discard ni;
        insert t ~tid key value
      end
    end

  let remove t ~tid key =
    (* Injection phase: flag the edge to the victim leaf. *)
    let rec inject () =
      let s = seek t ~tid key in
      if s.leaf.key <> key then false
      else if s.leaf_witness.flagged || s.leaf_witness.tagged then begin
        ignore (cleanup t ~tid key s);
        inject ()
      end
      else if
        Atomic.compare_and_set s.leaf_addr s.leaf_witness
          { s.leaf_witness with flagged = true }
      then begin
        (* Cleanup phase: we own the deletion; press until the leaf is
           out of the tree (by our CAS or someone's help).  The target
           must stay protected across the re-seeks of the press loop:
           if it were recycled and re-served as a fresh leaf for the
           same key, the [s.leaf != target] test would be fooled into
           running cleanup against a clean live edge (an ABA the
           per-pointer schemes are exposed to; the soak validator
           caught it). *)
        T.transfer t.tracker ~tid ~from_idx:slot_current
          ~to_idx:slot_target;
        let target = s.leaf in
        if cleanup t ~tid key s then true else press target
      end
      else inject ()
    and press target =
      let s = seek t ~tid key in
      if s.leaf != target then true (* a helper excised (and retired) it *)
      else if cleanup t ~tid key s then true
      else press target
    in
    inject ()

  (* put updates the leaf value in place when the key exists (the
     leaf is protected by the bracket/seek, and a single word write
     linearizes at the write; see Hm_core.put_in for why a
     node-replacing put is not linearizable in general). *)
  let put t ~tid key value =
    let rec loop () =
      let s = seek t ~tid key in
      if s.leaf.key = key then begin
        s.leaf.value <- value;
        false
      end
      else if s.leaf_witness.flagged || s.leaf_witness.tagged then begin
        ignore (cleanup t ~tid key s);
        loop ()
      end
      else begin
        let nl, ni = insert_leafpair t ~tid key value s.leaf in
        if Atomic.compare_and_set s.leaf_addr s.leaf_witness (clean_edge ni)
        then true
        else begin
          discard nl;
          discard ni;
          loop ()
        end
      end
    in
    loop ()

  (* Quiescent helpers: walk everything under S's left edge, skipping
     the sentinels. *)

  let fold t f acc =
    let rec go acc n =
      if n.is_leaf then if n.key >= inf0 then acc else f acc n
      else
        let gol =
          match (Atomic.get n.left).child with
          | Some c -> go acc c
          | None -> acc
        in
        match (Atomic.get n.right).child with
        | Some c -> go gol c
        | None -> gol
    in
    go acc t.s

  let size t = fold t (fun n _ -> n + 1) 0

  let to_sorted_list t =
    List.rev (fold t (fun acc n -> (n.key, n.value) :: acc) [])

  let check t =
    let rec go lo hi n =
      Hdr.check_not_freed "Nm_tree.check: reachable node freed" n.hdr;
      if not (lo <= n.key && n.key <= hi) then
        failwith
          (Printf.sprintf
             "Nm_tree.check: order violation: key=%d leaf=%b idx=%d not in [%d,%d]"
             n.key n.is_leaf n.pool_index lo hi);
      if not n.is_leaf then begin
        let l = Atomic.get n.left and r = Atomic.get n.right in
        if l.flagged || l.tagged || r.flagged || r.tagged then
          failwith "Nm_tree.check: dangling flag/tag at quiescence";
        (match l.child with
        | Some c -> go lo (n.key - 1) c
        | None -> failwith "Nm_tree.check: missing left child");
        match r.child with
        | Some c -> go n.key hi c
        | None -> failwith "Nm_tree.check: missing right child"
      end
    in
    go min_int max_int t.s

  (* Live traversal (Map_intf.fold): in-order walk under S's left
     edge with every edge read going through rotating protected
     slots.  Only a bounded window of the descent is slot-covered, so
     under HP/HE this is quiescent-only (Map_intf caveat); the
     bracket-protection schemes cover the whole walk via the caller's
     bracket. *)
  let fold t ~tid f acc =
    let d = ref 0 in
    let rd cell =
      let e = T.read t.tracker ~tid ~idx:(!d mod 3) cell proj in
      incr d;
      e
    in
    let rec go acc n =
      if n.is_leaf then if n.key >= inf0 then acc else f acc n.key n.value
      else
        let gol =
          match (rd n.left).child with Some c -> go acc c | None -> acc
        in
        match (rd n.right).child with Some c -> go gol c | None -> gol
    in
    go acc t.s
end
