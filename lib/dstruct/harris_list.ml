(** The sorted lock-free linked list benchmark ([20, 26]; paper §6,
    Figures 8a/9a/11a/12a).  A single Harris-Michael list over the
    whole key range — long traversals, low operation rate, heavy
    pressure on the traversal-time costs of each SMR scheme. *)

module Make (T : Smr.Tracker.S) : Map_intf.S = struct
  module C = Hm_core.Make (T)

  type t = { core : C.core; head : C.link Atomic.t }

  let name = "list"

  let create ?seed:_ ~cfg () =
    { core = C.make_core cfg; head = C.make_head () }

  let enter t ~tid = T.enter t.core.C.tracker ~tid
  let leave t ~tid = T.leave t.core.C.tracker ~tid
  let trim t ~tid = T.trim t.core.C.tracker ~tid
  let flush t ~tid = T.flush t.core.C.tracker ~tid
  let insert t ~tid k v = C.insert_in t.core ~tid ~head:t.head k v
  let remove t ~tid k = C.remove_in t.core ~tid ~head:t.head k
  let get t ~tid k = C.get_in t.core ~tid ~head:t.head k
  let put t ~tid k v = C.put_in t.core ~tid ~head:t.head k v
  let fold t ~tid f acc = C.fold_live_in t.core ~tid ~head:t.head f acc
  let stats t = T.stats t.core.C.tracker
  let gauges t = C.gauges_of t.core
  let inject_alloc_failures t ~n = C.inject_alloc_failures_in t.core ~n
  let size t = C.size_in ~head:t.head
  let to_sorted_list t = C.to_list_in ~head:t.head
  let check t = C.check_in ~head:t.head
end
