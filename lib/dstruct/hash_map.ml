(** Michael's lock-free hash map ([26]; paper §6, Figures 8c/9c/
    11c/12c): a fixed array of bucket heads, each bucket a
    Harris-Michael list.  Operations are very short, which is what
    makes this benchmark the paper's main reclamation stress — and the
    centrepiece of the oversubscription and robustness experiments
    (Figure 10). *)

let default_buckets = 8192

module Make (T : Smr.Tracker.S) : Map_intf.S = struct
  module C = Hm_core.Make (T)

  type t = { core : C.core; buckets : C.link Atomic.t array; mask : int }

  let name = "hashmap"

  let create ?seed:_ ~cfg () =
    let n = default_buckets in
    {
      core = C.make_core cfg;
      buckets = Array.init n (fun _ -> C.make_head ());
      mask = n - 1;
    }

  (* Fibonacci hashing: benchmark keys are small dense ints, so a
     multiplicative mix spreads them across buckets. *)
  let bucket t k =
    t.buckets.((k * 0x2545F4914F6CDD1D) lsr 40 land t.mask)

  let enter t ~tid = T.enter t.core.C.tracker ~tid
  let leave t ~tid = T.leave t.core.C.tracker ~tid
  let trim t ~tid = T.trim t.core.C.tracker ~tid
  let flush t ~tid = T.flush t.core.C.tracker ~tid
  let insert t ~tid k v = C.insert_in t.core ~tid ~head:(bucket t k) k v
  let remove t ~tid k = C.remove_in t.core ~tid ~head:(bucket t k) k
  let get t ~tid k = C.get_in t.core ~tid ~head:(bucket t k) k
  let put t ~tid k v = C.put_in t.core ~tid ~head:(bucket t k) k v
  let fold t ~tid f acc =
    Array.fold_left
      (fun acc head -> C.fold_live_in t.core ~tid ~head f acc)
      acc t.buckets

  let stats t = T.stats t.core.C.tracker
  let gauges t = C.gauges_of t.core
  let inject_alloc_failures t ~n = C.inject_alloc_failures_in t.core ~n

  let size t =
    Array.fold_left (fun acc head -> acc + C.size_in ~head) 0 t.buckets

  let to_sorted_list t =
    Array.fold_left (fun acc head -> List.rev_append (C.to_list_in ~head) acc)
      [] t.buckets
    |> List.sort compare

  let check t = Array.iter (fun head -> C.check_in ~head) t.buckets
end
