(** Growable float vectors and their order statistics. *)

type fvec = { mutable a : float array; mutable n : int }

let fvec () = { a = Array.make 256 0.0; n = 0 }

let push (v : fvec) (x : float) =
  if v.n = Array.length v.a then begin
    let g = Array.make (2 * v.n) 0.0 in
    Array.blit v.a 0 g 0 v.n;
    v.a <- g
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

(** Linearly interpolated quantile [q] in [0, 1]; 0 for no samples. *)
let quantile (v : fvec) (q : float) : float =
  if v.n = 0 then 0.0
  else
    let s = Array.sub v.a 0 v.n in
    Array.sort compare s;
    let pos = q *. float_of_int (v.n - 1) in
    let lo = truncate pos in
    let hi = min (v.n - 1) (lo + 1) in
    if lo = hi then s.(lo) else s.(lo) +. ((pos -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let median v = quantile v 0.5
let sum (v : fvec) = Array.fold_left ( +. ) 0.0 (Array.sub v.a 0 v.n)

(** The vector named [name] in [tbl], created empty on first use. *)
let series (tbl : (string, fvec) Hashtbl.t) name =
  match Hashtbl.find_opt tbl name with
  | Some v -> v
  | None ->
      let v = fvec () in
      Hashtbl.replace tbl name v;
      v
