// Package other imports nothing of the module outside its tests.
package other
