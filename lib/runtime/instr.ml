(* Static instruction identities.

   The paper's LLVM pass assigns every instrumented instruction a unique
   integer id.  Our workloads are written directly against the hook API, so
   each call site registers itself here once, under a stable name.  Sites
   are named after the paper's [file:line] locations (Table 2) where the
   corresponding code exists in the original systems.

   The registry is process-global and sites register lazily from workload
   code, so with the fuzzer's workers running on separate domains (§5)
   registration can race.  All registry state is guarded by one mutex:
   registration is rare (each site pays the lock once, lookups after the
   first hit come from the memoised id at the call site), so the lock is
   not on the fuzzing hot path. *)

type t = int

let lock = Mutex.create ()
let names : (string, int) Hashtbl.t = Hashtbl.create 256
let rev : (int, string) Hashtbl.t = Hashtbl.create 256
(* Written under [lock]; atomic so [of_int]'s bounds check, which runs on
   every dirty load, reads it without taking the lock. *)
let counter = Atomic.make 0

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let site name =
  with_lock (fun () ->
      match Hashtbl.find_opt names name with
      | Some id -> id
      | None ->
          let id = Atomic.get counter in
          Hashtbl.add names name id;
          Hashtbl.add rev id name;
          Atomic.set counter (id + 1);
          id)

let name id =
  with_lock (fun () ->
      match Hashtbl.find_opt rev id with
      | Some n -> n
      | None -> Printf.sprintf "<instr#%d>" id)

let count () = Atomic.get counter
let compare = Int.compare
let equal = Int.equal
let to_int id = id

let of_int id =
  let n = count () in
  if id < 0 || id >= n then invalid_arg (Printf.sprintf "Instr.of_int: unknown id %d" id);
  id

let pp ppf id = Fmt.string ppf (name id)
