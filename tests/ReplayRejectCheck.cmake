# A schedule file is untrusted input: replaying one that names a thread
# which cannot run must make svd_run exit 1 with a diagnostic, not
# abort. Invoke with:
#
#   cmake -DSVD_RUN=<exe> -DASM=<program.asm> -DOUTDIR=<dir> \
#         -P ReplayRejectCheck.cmake

file(MAKE_DIRECTORY "${OUTDIR}")
file(WRITE "${OUTDIR}/no_such_thread.sched"
     "svd-schedule v1\nrndseed 2\nsteps 3\n0 7 0\n")
file(WRITE "${OUTDIR}/halted_thread.sched"
     "svd-schedule v1\nrndseed 2\nsteps 200\n0*200\n")

foreach(CASE no_such_thread halted_thread)
  execute_process(COMMAND "${SVD_RUN}" "${ASM}"
                          --replay "${OUTDIR}/${CASE}.sched"
                  OUTPUT_QUIET
                  ERROR_VARIABLE ERR
                  RESULT_VARIABLE RC)
  if(NOT RC EQUAL 1)
    message(FATAL_ERROR "${CASE}: svd_run exited '${RC}', expected 1:\n${ERR}")
  endif()
  if(NOT ERR MATCHES "error: replay diverged at step [0-9]+: the schedule names thread [0-9]+")
    message(FATAL_ERROR "${CASE}: missing replay diagnostic:\n${ERR}")
  endif()
endforeach()
