(** The Bonsai-tree benchmark (Clements et al. [13] variant; paper §6,
    Figures 8b/9b/11b/12b).

    A persistent weight-balanced binary tree: writers path-copy from
    the root, rebalancing with size-based (Adams-style) rotations, and
    publish with a single CAS on the root pointer; every original node
    displaced by the copy is retired on success, and every
    speculatively built node is discarded on failure.  Readers
    traverse the snapshot they obtained from the root.  Each update
    retires a whole path, so this structure produces far more
    retirements per operation than the list or hash map — the paper's
    heaviest reclamation workload and the one where Hyaline's ~10%
    steady gain over EBR shows.

    As in the paper's framework, HP and HE are not run on this
    structure (per-pointer protection cannot cover a whole snapshot
    traversal through rotated subtrees); the bench harness skips them.

    Children are atomics read through the tracker so the era-based
    robust schemes (IBR, Hyaline-S) pay their per-dereference cost —
    the effect the paper cites for the robust variants' gap on this
    benchmark. *)

open Smr

(* Adams' balance parameters (as in Haskell's Data.Map). *)
let delta = 3
let ratio = 2

module Make (T : Tracker.S) : Map_intf.S = struct
  type node = {
    hdr : Hdr.t;
    pool_index : int;
    mutable key : int;
    mutable value : int;
    mutable weight : int; (* subtree node count *)
    left : node option Atomic.t;
    right : node option Atomic.t;
  }

  module Pool = Mpool.Make (struct
    type t = node

    let create ~index =
      {
        hdr = Hdr.create ();
        pool_index = index;
        key = 0;
        value = 0;
        weight = 1;
        left = Atomic.make None;
        right = Atomic.make None;
      }

    let index n = n.pool_index
    let on_alloc n = Hdr.set_live n.hdr
    let on_free _ = ()
  end)

  type t = { cfg : Config.t; tracker : T.t; pool : Pool.t; root : node option Atomic.t }

  let name = "bonsai"

  let create ?seed:_ ~cfg () =
    { cfg; tracker = T.create cfg; pool = Pool.create (); root = Atomic.make None }

  let enter t ~tid = T.enter t.tracker ~tid
  let leave t ~tid = T.leave t.tracker ~tid
  let trim t ~tid = T.trim t.tracker ~tid
  let flush t ~tid = T.flush t.tracker ~tid
  let stats t = T.stats t.tracker
  let gauges t = T.gauges t.tracker @ Pool.gauges t.pool
  let inject_alloc_failures t ~n = Pool.inject_failures t.pool ~n

  let proj = function Some n -> n.hdr | None -> Hdr.nil
  let weight = function None -> 0 | Some n -> n.weight

  (* Per-operation rebuild context: every node constructed during the
     speculative copy and every original it displaces. *)
  type ctx = { mutable created : node list; mutable replaced : node list }

  let mk t ctx ~tid key value l r =
    let n = Pool.alloc t.pool in
    n.key <- key;
    n.value <- value;
    n.weight <- 1 + weight l + weight r;
    Atomic.set n.left l;
    Atomic.set n.right r;
    if n.hdr.Hdr.free_hook == Hdr.no_hook then
      n.hdr.Hdr.free_hook <- (fun () -> Pool.free t.pool n);
    T.alloc_hook t.tracker ~tid n.hdr;
    ctx.created <- n :: ctx.created;
    n

  let displace ctx n = ctx.replaced <- n :: ctx.replaced

  (* Protected child reads; the snapshot is immutable but the blocks
     are reclaimable, so every pointer chase goes through the
     tracker. *)
  let rd t ~tid cell = T.read t.tracker ~tid ~idx:0 cell proj

  (* --- persistent weight-balanced tree, Adams-style --------------- *)

  let single_left t ctx ~tid k v l r =
    (* r becomes the new root of this subtree *)
    displace ctx r;
    let rl = rd t ~tid r.left and rr = rd t ~tid r.right in
    Some (mk t ctx ~tid r.key r.value (Some (mk t ctx ~tid k v l rl)) rr)

  let double_left t ctx ~tid k v l r =
    displace ctx r;
    let rl_opt = rd t ~tid r.left in
    let rl = Option.get rl_opt in
    displace ctx rl;
    let rll = rd t ~tid rl.left and rlr = rd t ~tid rl.right in
    let rr = rd t ~tid r.right in
    Some
      (mk t ctx ~tid rl.key rl.value
         (Some (mk t ctx ~tid k v l rll))
         (Some (mk t ctx ~tid r.key r.value rlr rr)))

  let single_right t ctx ~tid k v l r =
    displace ctx l;
    let ll = rd t ~tid l.left and lr = rd t ~tid l.right in
    Some (mk t ctx ~tid l.key l.value ll (Some (mk t ctx ~tid k v lr r)))

  let double_right t ctx ~tid k v l r =
    displace ctx l;
    let lr_opt = rd t ~tid l.right in
    let lr = Option.get lr_opt in
    displace ctx lr;
    let lrl = rd t ~tid lr.left and lrr = rd t ~tid lr.right in
    let ll = rd t ~tid l.left in
    Some
      (mk t ctx ~tid lr.key lr.value
         (Some (mk t ctx ~tid l.key l.value ll lrl))
         (Some (mk t ctx ~tid k v lrr r)))

  (* Rebuild a node [key/value] over subtrees [l]/[r] whose weights may
     differ by one insertion/deletion, restoring the BB[delta]
     invariant. *)
  let balance t ctx ~tid key value l r =
    let wl = weight l and wr = weight r in
    if wl + wr <= 1 then Some (mk t ctx ~tid key value l r)
    else if wr > (delta * wl) + 1 then begin
      let rn = Option.get r in
      let rlw = weight (rd t ~tid rn.left)
      and rrw = weight (rd t ~tid rn.right) in
      if rlw < ratio * rrw then single_left t ctx ~tid key value l rn
      else double_left t ctx ~tid key value l rn
    end
    else if wl > (delta * wr) + 1 then begin
      let ln = Option.get l in
      let llw = weight (rd t ~tid ln.left)
      and lrw = weight (rd t ~tid ln.right) in
      if lrw < ratio * llw then single_right t ctx ~tid key value ln r
      else double_right t ctx ~tid key value ln r
    end
    else Some (mk t ctx ~tid key value l r)

  exception Key_present
  exception Key_absent

  (* Path-copying insert; raises Key_present without building further
     if the key exists (the caller discards what was built). *)
  let rec ins t ctx ~tid key value = function
    | None -> Some (mk t ctx ~tid key value None None)
    | Some n ->
        if key = n.key then raise Key_present
        else begin
          displace ctx n;
          if key < n.key then
            let l' = ins t ctx ~tid key value (rd t ~tid n.left) in
            balance t ctx ~tid n.key n.value l' (rd t ~tid n.right)
          else
            let r' = ins t ctx ~tid key value (rd t ~tid n.right) in
            balance t ctx ~tid n.key n.value (rd t ~tid n.left) r'
        end

  (* Extract the minimum binding of a (non-empty) subtree, returning
     (key, value, remainder).  Every node on the min path — including
     the extracted minimum itself — is displaced. *)
  let rec take_min t ctx ~tid n =
    displace ctx n;
    match rd t ~tid n.left with
    | None -> (n.key, n.value, rd t ~tid n.right)
    | Some l ->
        let mk', mv', l' = take_min t ctx ~tid l in
        (mk', mv', balance t ctx ~tid n.key n.value l' (rd t ~tid n.right))

  let rec del t ctx ~tid key = function
    | None -> raise Key_absent
    | Some n ->
        displace ctx n;
        if key < n.key then
          let l' = del t ctx ~tid key (rd t ~tid n.left) in
          balance t ctx ~tid n.key n.value l' (rd t ~tid n.right)
        else if key > n.key then
          let r' = del t ctx ~tid key (rd t ~tid n.right) in
          balance t ctx ~tid n.key n.value (rd t ~tid n.left) r'
        else
          (* n is the victim *)
          match (rd t ~tid n.left, rd t ~tid n.right) with
          | None, r -> r
          | l, None -> l
          | l, Some r ->
              let sk, sv, r' = take_min t ctx ~tid r in
              balance t ctx ~tid sk sv l r'

  (* Never-published speculative nodes go straight back to the pool. *)
  let discard_created ctx =
    List.iter
      (fun n ->
        Hdr.set_freed n.hdr;
        n.hdr.Hdr.free_hook ())
      ctx.created;
    ctx.created <- []

  (* Run one speculative update against the current root; retry on CAS
     failure.  [present] is returned when the update aborts because
     the key was (insert) or was not (delete) there. *)
  let rec update t ~tid ~f ~on_abort =
    let ctx = { created = []; replaced = [] } in
    let old_root = rd t ~tid t.root in
    match f ctx old_root with
    | exception Key_present | exception Key_absent ->
        discard_created ctx;
        on_abort
    | new_root ->
        if Atomic.compare_and_set t.root old_root new_root then begin
          List.iter (fun n -> T.retire t.tracker ~tid n.hdr) ctx.replaced;
          not on_abort
        end
        else begin
          discard_created ctx;
          update t ~tid ~f ~on_abort
        end

  let insert t ~tid k v =
    update t ~tid ~f:(fun ctx root -> ins t ctx ~tid k v root) ~on_abort:false

  let remove t ~tid k =
    update t ~tid ~f:(fun ctx root -> del t ctx ~tid k root) ~on_abort:false

  let get t ~tid k =
    let rec go = function
      | None -> None
      | Some n ->
          if k = n.key then Some n.value
          else if k < n.key then go (rd t ~tid n.left)
          else go (rd t ~tid n.right)
    in
    go (rd t ~tid t.root)

  (* put = insert-or-replace: the replace path copies the path too
     (persistent structure), rewriting the node with the new value. *)
  let put t ~tid k v =
    let rec loop () =
      let ctx = { created = []; replaced = [] } in
      let inserted = ref true in
      let rec upd root =
        match root with
        | None -> Some (mk t ctx ~tid k v None None)
        | Some n ->
            displace ctx n;
            if k = n.key then begin
              inserted := false;
              Some (mk t ctx ~tid k v (rd t ~tid n.left) (rd t ~tid n.right))
            end
            else if k < n.key then
              let l' = upd (rd t ~tid n.left) in
              balance t ctx ~tid n.key n.value l' (rd t ~tid n.right)
            else
              let r' = upd (rd t ~tid n.right) in
              balance t ctx ~tid n.key n.value (rd t ~tid n.left) r'
      in
      let old_root = rd t ~tid t.root in
      let new_root = upd old_root in
      if Atomic.compare_and_set t.root old_root new_root then begin
        List.iter (fun n -> T.retire t.tracker ~tid n.hdr) ctx.replaced;
        !inserted
      end
      else begin
        discard_created ctx;
        loop ()
      end
    in
    loop ()

  (* Live traversal (Map_intf.fold): bonsai is only ever paired with
     bracket-protection schemes (the registry rejects HP/HE on it), so
     the caller's bracket covers the whole walk; [rd] keeps the reads
     going through the tracker like every other traversal. *)
  let fold_live t ~tid f acc =
    let rec go acc = function
      | None -> acc
      | Some n ->
          let acc = go acc (rd t ~tid n.left) in
          let acc = f acc n.key n.value in
          go acc (rd t ~tid n.right)
    in
    go acc (rd t ~tid t.root)

  (* Quiescent helpers *)

  let fold t f acc =
    let rec go acc = function
      | None -> acc
      | Some n ->
          let acc = go acc (Atomic.get n.left) in
          let acc = f acc n in
          go acc (Atomic.get n.right)
    in
    go acc (Atomic.get t.root)

  let size t = fold t (fun n _ -> n + 1) 0
  let to_sorted_list t = List.rev (fold t (fun acc n -> (n.key, n.value) :: acc) [])

  let check t =
    let rec go lo hi = function
      | None -> 0
      | Some n ->
          Hdr.check_not_freed "Bonsai.check: reachable node freed" n.hdr;
          if not (lo < n.key && n.key < hi) then
            failwith "Bonsai.check: order violation";
          let wl = go lo n.key (Atomic.get n.left) in
          let wr = go n.key hi (Atomic.get n.right) in
          if n.weight <> wl + wr + 1 then
            failwith "Bonsai.check: weight corrupted";
          (* The BB invariant (with Adams' +1 slack). *)
          if wl + wr > 1 && (wl > (delta * wr) + 1 || wr > (delta * wl) + 1)
          then failwith "Bonsai.check: balance violated";
          n.weight
    in
    ignore (go min_int max_int (Atomic.get t.root))

  (* The exported Map_intf.fold is the live, bracketed one; the
     quiescent [fold] above stays internal (size/to_sorted_list). *)
  let fold = fold_live
end
