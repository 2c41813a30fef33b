# bench_check.cmake — the run and compare steps of the bench ctest
# scripts, included by every script under bench/.

# dsm_run_expect(RC OUT ERR CMD...): run CMD with stdout to the file OUT
# ("" discards it) and stderr to the file ERR ("" leaves it on ctest's
# log), and fail unless CMD exits RC. The failure message quotes ERR.
function(dsm_run_expect want out err)
  if(out)
    set(to OUTPUT_FILE ${out})
  else()
    set(to OUTPUT_QUIET)
  endif()
  if(err)
    list(APPEND to ERROR_FILE ${err})
  endif()
  execute_process(COMMAND ${ARGN} ${to} RESULT_VARIABLE rc)
  if(NOT rc STREQUAL want)
    list(JOIN ARGN " " cmd)
    set(stderr_text "")
    if(err)
      file(READ ${err} stderr_text)
      set(stderr_text "; stderr:\n${stderr_text}")
    endif()
    message(FATAL_ERROR "`${cmd}` exited with ${rc}, want ${want}"
                        "${stderr_text}")
  endif()
endfunction()

# dsm_run(OUT CMD...): run CMD with stdout to the file OUT ("" discards
# it) and fail unless CMD exits 0.
function(dsm_run out)
  dsm_run_expect(0 "${out}" "" ${ARGN})
endfunction()

# dsm_expect_same(WHAT GOT WANT [HINT...]): fail unless the file GOT is
# non-empty and holds the bytes of WANT. The message names both paths, so
# `diff GOT WANT` shows what moved.
function(dsm_expect_same what got want)
  file(SIZE ${got} size)
  if(size EQUAL 0)
    message(FATAL_ERROR "${what}: ${got} is empty")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${got} ${want}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${what} differs:\n  got:  ${got}\n  want: ${want}\n"
                        ${ARGN})
  endif()
endfunction()

# dsm_expect_golden(GOT GOLDEN): dsm_expect_same against a file committed
# under bench/expected/. A change that moves it on purpose re-blesses it.
function(dsm_expect_golden got golden)
  dsm_expect_same("the committed golden" ${got} ${golden}
    "If the change is meant to move these bytes, copy the first path over "
    "the second and say why in CHANGES.md.")
endfunction()

# dsm_expect_contains(FILE TEXT): fail unless FILE contains TEXT.
function(dsm_expect_contains path text)
  file(READ ${path} bytes)
  string(FIND "${bytes}" "${text}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "${path} does not contain ${text}")
  endif()
endfunction()
