type t = {
  h_ver : Version.t;
  h_committed : bool;
  h_abort : Obs.Abort_reason.t option;
  h_reads : (string * Version.t) list;
  h_writes : string list;
  h_start_us : int;
  h_end_us : int;
  h_exec_us : int;
  h_prepare_us : int;
  h_finalize_us : int;
  h_ro : bool;
  h_staleness_us : int;
}
