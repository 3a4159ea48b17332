module type POOLABLE = sig
  type t

  val create : index:int -> t
  val index : t -> int
  val on_alloc : t -> unit
  val on_free : t -> unit
end

exception Injected_oom

type stats = { created : int; allocs : int; frees : int }

let pp_stats ppf { created; allocs; frees } =
  Format.fprintf ppf "created=%d allocs=%d frees=%d live=%d" created allocs
    frees (allocs - frees)

module Make (P : POOLABLE) = struct
  (* Per-domain free cache.  [count] is maintained incrementally so
     [free] never walks the list. *)
  type cache = { mutable count : int; mutable nodes : P.t list }

  (* The shared free list: a CAS stack of immutable magazines.  A
     magazine is one spilled cache, [node :: rest], [count] nodes in
     all; [total] counts the nodes of this magazine and every one below
     it, so the top alone gives the stack's length.  Each push
     allocates a fresh [Mag], so a CAS on the top cannot ABA. *)
  type stack =
    | Empty
    | Mag of {
        node : P.t;
        rest : P.t list;
        count : int;
        total : int;
        below : stack;
      }

  type t = {
    next_index : int Atomic.t;
    shared : stack Atomic.t;
    local_cache : int;
    cache_key : cache Domain.DLS.key;
    created : int Atomic.t;
    allocs : int Atomic.t;
    frees : int Atomic.t;
    (* Fault-injection budget: while positive, each [alloc] consumes
       one unit and raises [Injected_oom] instead of handing out a
       node.  Disabled (0) costs one relaxed load on the alloc path —
       see the bench/main.ml hook-overhead group. *)
    oom_budget : int Atomic.t;
  }

  let create ?(local_cache = 64) () =
    if local_cache < 0 then invalid_arg "Mpool.create: local_cache < 0";
    {
      next_index = Atomic.make 0;
      shared = Atomic.make Empty;
      local_cache;
      cache_key = Domain.DLS.new_key (fun () -> { count = 0; nodes = [] });
      created = Atomic.make 0;
      allocs = Atomic.make 0;
      frees = Atomic.make 0;
      oom_budget = Atomic.make 0;
    }

  let inject_failures t ~n =
    if n < 0 then invalid_arg "Mpool.inject_failures: n < 0";
    ignore (Atomic.fetch_and_add t.oom_budget n)

  let injected_failures_pending t = max 0 (Atomic.get t.oom_budget)

  (* Claim one unit of the armed budget; the CAS loop resolves races
     between concurrent allocators so exactly [n] allocations fail. *)
  let rec take_oom t =
    let n = Atomic.get t.oom_budget in
    if n <= 0 then false
    else if Atomic.compare_and_set t.oom_budget n (n - 1) then true
    else take_oom t

  let total = function Empty -> 0 | Mag m -> m.total

  (* Spill: one CAS pushes a whole cache, whatever the stack holds. *)
  let rec push t node rest count =
    let below = Atomic.get t.shared in
    let top = Mag { node; rest; count; total = count + total below; below } in
    if not (Atomic.compare_and_set t.shared below top) then
      push t node rest count

  (* Miss: one CAS pops one magazine.  The cheap empty check comes
     first, so an idle domain does not bounce the line with an RMW. *)
  let rec pop t =
    match Atomic.get t.shared with
    | Empty -> Empty
    | Mag m as top ->
        if Atomic.compare_and_set t.shared top m.below then top else pop t

  let fresh t =
    let i = Atomic.fetch_and_add t.next_index 1 in
    let node = P.create ~index:i in
    Atomic.incr t.created;
    node

  let alloc t =
    if Atomic.get t.oom_budget > 0 && take_oom t then raise Injected_oom;
    Atomic.incr t.allocs;
    let cache = Domain.DLS.get t.cache_key in
    let node =
      match cache.nodes with
      | n :: rest ->
          cache.nodes <- rest;
          cache.count <- cache.count - 1;
          n
      | [] -> (
          match pop t with
          | Empty -> fresh t
          | Mag m ->
              cache.nodes <- m.rest;
              cache.count <- m.count - 1;
              m.node)
    in
    P.on_alloc node;
    node

  (* A free that would take the cache past [local_cache] nodes spills
     the cache and [node] as one magazine of [local_cache + 1]. *)
  let free t node =
    P.on_free node;
    Atomic.incr t.frees;
    let cache = Domain.DLS.get t.cache_key in
    if cache.count < t.local_cache then begin
      cache.nodes <- node :: cache.nodes;
      cache.count <- cache.count + 1
    end
    else begin
      push t node cache.nodes (cache.count + 1);
      cache.nodes <- [];
      cache.count <- 0
    end

  let stats t =
    {
      created = Atomic.get t.created;
      allocs = Atomic.get t.allocs;
      frees = Atomic.get t.frees;
    }

  (* Read [frees] first: frees never outpace allocs, so this order
     keeps the difference non-negative under concurrent updates. *)
  let live t =
    let f = Atomic.get t.frees in
    let a = Atomic.get t.allocs in
    max 0 (a - f)

  let shared_free_length t = total (Atomic.get t.shared)

  let gauges t =
    [
      ("mpool_live", live t);
      ("mpool_shared_free", shared_free_length t);
      ("mpool_created", Atomic.get t.created);
    ]
end
