type 'a t = {
  kmin : int;
  log_kmin : int;
  levels : 'a array option Atomic.t array;
  mk : unit -> 'a;
}

let max_levels = 64

let create ~kmin mk =
  if not (Smr.Config.is_pow2 kmin) then
    invalid_arg "Directory.create: kmin not a power of two";
  let levels = Array.init max_levels (fun _ -> Atomic.make None) in
  Atomic.set levels.(0) (Some (Array.init kmin (fun _ -> mk ())));
  { kmin; log_kmin = Adjs.log2 kmin; levels; mk }

let kmin t = t.kmin

(* floor(log2 n) for n >= 1 *)
let ilog2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(* Level [l >= 1] starts at slot [kmin * 2^(l-1)].  Computed without
   building an (level, offset) pair: [get] is on every bracket and
   dereference, and must not allocate. *)
let level_of t i = if i < t.kmin then 0 else ilog2 (i lsr t.log_kmin) + 1
let base_of t l = if l = 0 then 0 else t.kmin lsl (l - 1)

let capacity t =
  let rec go l cap =
    if l >= max_levels then cap
    else
      match Atomic.get t.levels.(l) with
      | None -> cap
      | Some _ -> go (l + 1) (if l = 0 then t.kmin else cap * 2)
  in
  go 0 0

let get t i =
  let l = level_of t i in
  match Atomic.get t.levels.(l) with
  | Some arr -> arr.(i - base_of t l)
  | None -> invalid_arg "Directory.get: slot not yet published"

let ensure t ~k =
  let rec go l covered =
    if covered >= k || l >= max_levels then ()
    else begin
      (match Atomic.get t.levels.(l) with
      | Some _ -> ()
      | None ->
          (* Level [l >= 1] has as many slots as all previous levels
             combined, doubling the total. *)
          let size = t.kmin lsl (l - 1) in
          let arr = Array.init size (fun _ -> t.mk ()) in
          ignore (Atomic.compare_and_set t.levels.(l) None (Some arr)));
      go (l + 1) (covered * 2)
    end
  in
  go 1 t.kmin
