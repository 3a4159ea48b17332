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
     [free] never walks the list (spilling used to be O(cache) per
     free). *)
  type cache = { mutable count : int; mutable nodes : P.t list }

  type t = {
    next_index : int Atomic.t;
    shared_free : P.t list Atomic.t;
    shared_len : int Atomic.t;
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
      shared_free = Atomic.make [];
      shared_len = Atomic.make 0;
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

  let rec push_shared t node =
    let old = Atomic.get t.shared_free in
    if Atomic.compare_and_set t.shared_free old (node :: old) then
      Atomic.incr t.shared_len
    else push_shared t node

  (* Spill a whole cache with a single successful CAS: splice the
     spilled list in front of the shared list.  The splice is rebuilt
     on a CAS failure, but each retry is O(spill) with spill bounded by
     [local_cache] — versus the old one-CAS-per-node loop. *)
  let rec splice_shared t spilled n =
    let old = Atomic.get t.shared_free in
    if Atomic.compare_and_set t.shared_free old (List.rev_append spilled old)
    then ignore (Atomic.fetch_and_add t.shared_len n)
    else splice_shared t spilled n

  let rec pop_shared t =
    match Atomic.get t.shared_free with
    | [] -> None
    | node :: rest as old ->
        if Atomic.compare_and_set t.shared_free old rest then begin
          Atomic.decr t.shared_len;
          Some node
        end
        else pop_shared t

  (* Cache-miss path: grab the whole shared list in one [exchange] —
     no CAS loop, so a refill cannot livelock against concurrent
     pushers — keep up to [local_cache] nodes for this domain's cache,
     and splice the surplus back.  A miss used to pay one CAS per
     node popped; now a burst of misses on one domain pays one RMW
     per [local_cache] allocations.  The cheap empty-check load comes
     first so idle domains don't bounce the line with useless RMWs.
     Deliberate transient: between the exchange and the splice-back,
     other domains see an empty list and fall through to [fresh], and
     [shared_len] overcounts until the deferred adjustment lands —
     both are benign (extra created nodes / a gauge upper bound; see
     the .mli) and the price of the livelock-free exchange. *)
  let refill t cache =
    if Atomic.get t.shared_free == [] then None
    else
      match Atomic.exchange t.shared_free [] with
      | [] -> None
      | node :: rest ->
          let rec keep acc n = function
            | x :: xs when n < t.local_cache -> keep (x :: acc) (n + 1) xs
            | surplus -> (acc, n, surplus)
          in
          let kept, n_kept, surplus = keep [] 0 rest in
          cache.nodes <- kept;
          cache.count <- n_kept;
          (match surplus with
          | [] -> ignore (Atomic.fetch_and_add t.shared_len (-(1 + n_kept)))
          | _ ->
              (* The exchange removed the whole list but [shared_len]
                 still counts it, so after splicing the surplus back
                 only what this domain took needs deducting.  The list
                 is a free list: order is irrelevant, [rev_append] is
                 fine. *)
              let rec put back =
                let old = Atomic.get t.shared_free in
                if
                  Atomic.compare_and_set t.shared_free old
                    (List.rev_append back old)
                then ignore (Atomic.fetch_and_add t.shared_len (-(1 + n_kept)))
                else put back
              in
              put surplus);
          Some node

  let fresh t =
    let i = Atomic.fetch_and_add t.next_index 1 in
    let node = P.create ~index:i in
    Atomic.incr t.created;
    node

  let alloc t =
    if Atomic.get t.oom_budget > 0 && take_oom t then raise Injected_oom;
    Atomic.incr t.allocs;
    let node =
      if t.local_cache = 0 then
        match pop_shared t with Some n -> n | None -> fresh t
      else
        let cache = Domain.DLS.get t.cache_key in
        match cache.nodes with
        | n :: rest ->
            cache.nodes <- rest;
            cache.count <- cache.count - 1;
            n
        | [] -> ( match refill t cache with Some n -> n | None -> fresh t)
    in
    P.on_alloc node;
    node

  let free t node =
    P.on_free node;
    Atomic.incr t.frees;
    if t.local_cache = 0 then push_shared t node
    else begin
      let cache = Domain.DLS.get t.cache_key in
      cache.nodes <- node :: cache.nodes;
      cache.count <- cache.count + 1;
      if cache.count > t.local_cache then begin
        splice_shared t cache.nodes cache.count;
        cache.nodes <- [];
        cache.count <- 0
      end
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

  (* Clamped: a pop's decrement can land before the matching push's
     increment, leaving the counter transiently negative. *)
  let shared_free_length t = max 0 (Atomic.get t.shared_len)

  let gauges t =
    [
      ("mpool_live", live t);
      ("mpool_shared_free", shared_free_length t);
      ("mpool_created", Atomic.get t.created);
    ]
end
