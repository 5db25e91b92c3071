(* Host speed reference.

   On a host whose cores are shared with other machines, the speed of
   every computation changes from one moment to the next.  On the 2-core
   host this benchmark was calibrated on, a fixed loop ran up to 1.7x
   slower for seconds at a time, and per-run medians of the corpus
   workloads moved by 10-35% between runs of the same commit.

   A fixed reference computation, run between a workload's operations
   and outside its timed regions, measures the speed of the moment.  An
   operation's time divided by the reference time measured next to it
   no longer depends on that speed; multiplied by [nominal_ms], the
   reference's duration on the calibration host at full speed, it is
   the operation's time at that speed, in milliseconds.  The reference
   uses the OCaml standard library only and runs while the workload is
   idle, so a change to the analyzer moves it only by loading the cores
   or the memory system in the background: work left running on other
   threads or domains, or a much larger heap.  Such a change is outside
   what the correction preserves; the mean factor every run prints
   ([host_speed_factor]) shows when it moved. *)

let size = 4096
let source = Array.init size (fun i -> (i * 0x9E3779B1) land 0xFFFFFF)
let work = Array.make size 0
let table = Array.make (4 * size) (-1)
let mask = (4 * size) - 1

(* Sort a copy of a fixed array, then insert it into an open-addressing
   hash set: integer work and scattered memory traffic.  It allocates
   nothing, so its time does not depend on the garbage collector, nor
   on how many domains the process runs. *)
let kernel () =
  Array.blit source 0 work 0 size;
  Array.sort Int.compare work;
  Array.fill table 0 (4 * size) (-1);
  let n = ref 0 in
  Array.iter
    (fun x ->
      let rec insert i =
        let y = table.(i) in
        if y = -1 then begin
          table.(i) <- x;
          incr n
        end
        else if y <> x then insert ((i + 1) land mask)
      in
      insert ((x * 0x2545F491) land mask))
    work;
  !n

(* Duration of [kernel] at full speed on the calibration host. *)
let nominal_ms = 0.85

let time_ms () =
  let t0 = Dlz_base.Trace.now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  Int64.to_float (Int64.sub (Dlz_base.Trace.now_ns ()) t0) /. 1e6

(* The last [window] reference times, so that one preempted reference
   run cannot rescale the operations measured next to it. *)
type meter = { times : float array; mutable next : int }

let window = 5
let meter () = { times = Array.init window (fun _ -> time_ms ()); next = 0 }

(* Runs the reference once more and returns the factor that turns a time
   measured now into the time at nominal speed, from the median of the
   last [window] runs. *)
let factor m =
  m.times.(m.next) <- time_ms ();
  m.next <- (m.next + 1) mod window;
  nominal_ms /. Stats.median m.times
