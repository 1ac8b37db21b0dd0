module github.com/rtsyslab/eucon/bench

go 1.23

require github.com/rtsyslab/eucon v0.0.0

replace github.com/rtsyslab/eucon => ../
